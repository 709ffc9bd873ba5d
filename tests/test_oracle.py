import ast
import collections
import inspect
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bruteforce import (
    conjugate_by_full_matrices,
    cycle_class_maps_one_at_a_time,
    depolarise_by_subsets,
    hs_product_by_full_matrices,
    partial_trace_by_sums,
    projectors_by_characters,
    projectors_by_full_blocks,
    psd_by_fraction_ldl,
    twirl_by_permutations,
    word_map_by_inverse,
    words_by_product,
)
from isotwirl.frames import MAX_BOXES, dim_sym, dim_unitary, enumerate_frames, frame
from isotwirl.symmetric_group import Permutation, character, class_size, enumerate_group
import isotwirl
from isotwirl import lr, symmetric_group
from isotwirl import oracle as orc
from isotwirl import verify


def block_mask(d, n):
    """True exactly on the word pairs inside one letter-count block."""
    mask = np.zeros((d**n, d**n), dtype=bool)
    for words in orc._letter_blocks(d, n):
        mask[np.ix_(words, words)] = True
    return mask


def full_product(a, b):
    return orc.TensorOperator(a.d, a.n, a.scale * b.scale, a.mat @ b.mat)


def relabellings(d, n):
    """The word maps of the d! relabellings of the letters, on all sites at once."""
    words = list(itertools.product(range(d), repeat=n))
    index = {w: i for i, w in enumerate(words)}
    return [[index[tuple(g[a] for a in w)] for w in words] for g in itertools.permutations(range(d))]


def relabelled(mat, d, n):
    """``mat`` with the letters relabelled by each of the d! permutations, on all sites at once."""
    for moved in relabellings(d, n):
        yield mat[np.ix_(moved, moved)]


def invariant(mat, d, n):
    """``mat`` zeroed outside the letter blocks and summed over every relabelling: a matrix the oracle holds."""
    return sum(relabelled(np.where(block_mask(d, n), mat, 0), d, n))


def holds(mat, d, n):
    """Whether the constructor must take ``mat``: zero outside the letter blocks and relabel-invariant."""
    if np.count_nonzero(mat[~block_mask(d, n)]):
        return False
    return all(np.array_equal(moved, mat) for moved in relabelled(mat, d, n))


def rand_matrix(rng, d, n, bound=5):
    dim = d**n
    return np.array([[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(dim)], dtype=object)


def rand_invariant(rng, d, n, bound=5):
    """A random matrix the oracle holds: draws in [-bound, bound] made invariant, so entries up to d! bound."""
    return invariant(rand_matrix(rng, d, n, bound), d, n)


def rand_op(rng, d, n, den=7):
    return orc.TensorOperator(d, n, Fraction(1, den), rand_invariant(rng, d, n))


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
    result = verify.check_permutation_representation(3, 3, random.Random(0))
    assert result.passed and result.checked, result.failures


def test_dimension_cap():
    # the one dense size limit, max(d, 2)**n <= 6561: the first n past it at each d
    with pytest.raises(ValueError):
        orc.perm_operator(Permutation(tuple(range(9))), 3)  # 3**9 > 6561
    for d, n in ((1, 13), (2, 13), (3, 9), (4, 7)):
        for build in (orc.isotypical_projectors, verify.dense_twirl_overlaps, orc.TensorOperator.identity):
            with pytest.raises(ValueError, match=rf"d={d}, n={n}: .* exceeds cap 6561"):
                build(d, n)
    assert orc.TensorOperator.identity(1, 12).trace() == 1
    assert orc.TensorOperator.identity(4, 6).trace() == 4**6


def test_d2_families_at_n9_and_n10():
    # no dense operation loops over S_n, so the dense size limit alone bounds n
    assert list(orc.isotypical_projectors(2, 9)) == enumerate_frames(2, 9)
    assert list(orc.isotypical_projectors(2, 10)) == enumerate_frames(2, 10)
    result = verify.check_projector_algebra([(2, 10)])
    assert result.passed and result.checked > 0
    orc.clear_projector_cache()


def test_no_parameter_overrides_a_cap():
    # size limits are module constants: no function of the public API or of the
    # modules that hold a limit, methods included, takes a parameter named *cap
    functions = [getattr(isotwirl, name) for name in isotwirl.__all__]
    for module in (orc, verify, lr, symmetric_group):
        functions += [f for f in vars(module).values() if callable(f) and f.__module__ == module.__name__]
    functions += [m for cls in functions if isinstance(cls, type) for m in vars(cls).values() if callable(m)]
    signatures = [inspect.signature(f) for f in functions]
    assert len(signatures) > 100
    for f, signature in zip(functions, signatures):
        assert not [name for name in signature.parameters if name.endswith("cap")], f


def test_public_names_resolve_once():
    # a name deleted from its module but left in __all__ fails here, not at a later star import
    assert len(set(isotwirl.__all__)) == len(isotwirl.__all__)
    assert [name for name in isotwirl.__all__ if not hasattr(isotwirl, name)] == []


def test_size_table_within_hard_caps(monkeypatch):
    # every row of the registry inside MAX_BOXES and 64; a check that builds a
    # dense operator at the smallest run (caches cleared) keeps its row inside
    # the dense sweep, and the projector cache holds every family those rows
    # build, (d, 0..n)
    for check in verify.CHECKS:
        assert all(d in MAX_BOXES and n <= min(MAX_BOXES[d], 64) for d, n in check.row.items()), check.name
    dense_sizes = []
    check_size = orc._check_dense_size
    monkeypatch.setattr(orc, "_check_dense_size", lambda d, n: dense_sizes.append((d, n)) or check_size(d, n))
    cfg = verify.RunConfig(d_max=4, n_max=2)
    top: dict[int, int] = {}
    for check in verify.CHECKS:
        orc.clear_projector_cache()
        verify.dense_twirl_overlaps.cache_clear()
        dense_sizes.clear()
        check.call(cfg, check.sizes(cfg), random.Random(0))
        if dense_sizes:
            assert all(n <= orc.DENSE_SWEEP_N[d] for d, n in check.row.items()), check.name
            top.update((d, max(top.get(d, 0), n)) for d, n in check.row.items())
    assert top == orc.DENSE_SWEEP_N
    assert sum(n + 1 for n in top.values()) <= orc._projector_family.cache_info().maxsize


def test_verify_all_at_d4_builds_each_projector_family_once():
    # every dense row at its largest size, d = 4 included; a family or an
    # overlap table evicted and rebuilt would count one more miss than its cache holds
    orc.clear_projector_cache()
    verify.dense_twirl_overlaps.cache_clear()
    report = verify.run_suite("all", verify.RunConfig(d_max=4, n_max=8))
    info = orc._projector_family.cache_info()
    tables = verify.dense_twirl_overlaps.cache_info()
    assert report.passed
    assert info.misses == info.currsize == sum(n + 1 for n in orc.DENSE_SWEEP_N.values())
    assert tables.misses == tables.currsize == sum(orc.DENSE_SWEEP_N.values())  # n = 1..N per d


def test_dense_index_maps_are_built_once_per_key():
    # 72 distinct kron maps, more than a cache bounded at 64 keeps, asked for twice: none is built twice
    keys = [(d, left, right) for d in (1, 2) for left in range(6) for right in range(6)]
    orc.clear_projector_cache()
    try:
        for _ in range(2):
            for key in keys:
                orc._kron_maps(*key)
        assert orc._kron_maps.cache_info().misses == len(keys)
    finally:
        orc.clear_projector_cache()


def test_dense_twirl_overlaps_match_full_matrices():
    # both values of every table entry from full Python-int matrices: the trace
    # over the last k sites summed entry by entry, its padding by np.kron
    for d, n_max in ((2, 4), (3, 3)):
        for n in range(1, n_max + 1):
            family = orc.isotypical_projectors(d, n)
            table = verify.dense_twirl_overlaps(d, n)
            assert table.frames == tuple(family)
            assert table.scales == tuple(p.scale * math.factorial(n) for p in family.values())
            for levels in (table.literal, table.paired):  # k = 0..n, each a square over the frames
                assert [[len(row) for row in level] for level in levels] == [[len(family)] * len(family)] * (n + 1)
            reduced = {
                (lam, k): partial_trace_by_sums(p, tuple(range(n - k, n)))
                for lam, p in family.items()
                for k in range(n + 1)
            }
            indexed = list(enumerate(family))
            for (i, lam), k, (j, lam_p) in itertools.product(indexed, range(n + 1), indexed):
                red = reduced[lam, k]
                ones = np.identity(d**k, dtype=object)
                padded = orc.TensorOperator(d, n, red.scale / d**k, np.kron(red.mat, ones))
                literal = hs_product_by_full_matrices(family[lam_p], padded)
                paired = hs_product_by_full_matrices(reduced[lam_p, k], red) / d**k
                values = tuple(t.weight(lam_p) for t in table.twirl(i, k))
                assert values == (literal, paired), (d, str(lam), k, str(lam_p))


def test_dense_twirl_overlaps_size_limit():
    # (2, 9) lies inside the one dense size limit, (2, 13) past it; a table is built once per (d, n)
    with pytest.raises(ValueError):
        verify.dense_twirl_overlaps(2, 13)
    table = verify.dense_twirl_overlaps(2, 9)
    assert table.frames == tuple(enumerate_frames(2, 9)) and len(table.paired) == 10
    assert verify.dense_twirl_overlaps(2, 9) is table
    verify.dense_twirl_overlaps.cache_clear()
    orc.clear_projector_cache()


def test_projector_families_in_canonical_form():
    # == ignores the scale; the stored form is primitive int64 entries over the folded scale.
    # (1, 12) is the largest n the size limit allows, at the largest common scale 12!.
    sizes = [(d, n) for d, n_max in orc.DENSE_SWEEP_N.items() for n in range(n_max + 1)] + [(2, 10), (1, 12)]
    for d, n in sizes:
        for lam, p in orc.isotypical_projectors(d, n).items():
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
    # eleven 4096 x 4096 class sums (test_projector_family_matches_full_blocks
    # checks that family vector for vector, test_central_elements_separate_frames its sum and traces)
    sizes = [(d, n) for d in range(1, 5) for n in range(7) if (d, n) != (4, 6)] + [(2, 7), (2, 8)]
    for d, n in sizes:
        fam, ref = orc.isotypical_projectors(d, n), projectors_by_characters(d, n)
        assert list(fam) == list(ref), (d, n)
        for lam, p in ref.items():
            assert fam[lam] == p, (d, n, str(lam))


def test_projector_family_matches_full_blocks():
    # past the character sums' reach: every size up to (2, 10), (3, 7) and (4, 6) (and d = 1 to n = 12),
    # each family against the Lagrange polynomials in the full class-sum blocks, vector for vector
    for d, n_max in ((1, 12), (2, 10), (3, 7), (4, 6)):
        for n in range(n_max + 1):
            fam, ref = orc.isotypical_projectors(d, n), projectors_by_full_blocks(d, n)
            assert list(fam) == list(ref), (d, n)
            for lam, p in ref.items():
                got = fam[lam]
                assert (got.scale, got._vec.dtype) == (p.scale, p._vec.dtype), (d, n, str(lam))
                assert np.array_equal(got._vec, p._vec), (d, n, str(lam))
    orc.clear_projector_cache()


@pytest.mark.parametrize("d, n", [(3, 8), (2, 12)])
def test_largest_families_match_full_blocks(d, n):
    # the largest n of d = 3 and d = 2, vector for vector against the full class-sum blocks
    orc.clear_projector_cache()
    fam, ref = orc.isotypical_projectors(d, n), projectors_by_full_blocks(d, n)
    assert list(fam) == list(ref)
    for lam, p in ref.items():
        got = fam[lam]
        assert (got.scale, got._vec.dtype) == (p.scale, p._vec.dtype), str(lam)
        assert np.array_equal(got._vec, p._vec), str(lam)
    orc.clear_projector_cache()


def test_one_lagrange_product_builds_each_family(monkeypatch):
    # one product over every content sum of YF(d, n), and one more per group of frames sharing a
    # content sum; up to DENSE_SWEEP_N every integer product of the build takes the float route
    calls, routes = [], []
    lagrange_rows, int_matmul = orc._lagrange_rows, orc._int_matmul

    def counted(start, steps, values):
        calls.append(values)
        return lagrange_rows(start, steps, values)

    def routed(a, b):
        routes.append(orc._matmul_route(a, b))
        return int_matmul(a, b)

    monkeypatch.setattr(orc, "_lagrange_rows", counted)
    monkeypatch.setattr(orc, "_int_matmul", routed)
    swept = [(d, n) for d, n_max in orc.DENSE_SWEEP_N.items() for n in range(n_max + 1)]
    for d, n in swept + [(4, 6), (3, 8), (2, 12)]:
        orc.clear_projector_cache()
        calls.clear()
        routes.clear()
        orc.isotypical_projectors(d, n)
        sums = collections.Counter(orc.central_eigenvalues(lam)[0] for lam in enumerate_frames(d, n))
        assert sorted(calls[0]) == sorted(sums), (d, n)
        assert len(calls) == 1 + sum(count > 1 for count in sums.values()), (d, n)
        assert routes and ((d, n) not in swept or set(routes) == {"float"}), (d, n, routes)
    orc.clear_projector_cache()


def test_sorting_spread_rebuilds_invariant_blocks():
    # a twirl commutes with every site permutation by the orbit route, so each stored block
    # of it is its sorted word's row read through the spread map
    rng = random.Random(38)
    for d, n in ((2, 8), (3, 6), (4, 5)):
        op = orc.twirl(orc.random_invariant(rng, d, n, -5, 5))
        layout = op._layout
        for words, (lo, hi, m) in zip(layout.blocks, layout.spans):
            spread = orc._sorting_spread(words, layout.local, d, n)
            assert spread.shape == (m, m) and np.array_equal(spread[0], np.arange(m)), (d, n, m)
            assert np.array_equal(op._vec[lo : lo + m].take(spread), op._vec[lo:hi].reshape(m, m)), (d, n, m)
    orc.clear_projector_cache()


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
    # at the largest n of each d: the family sums to 1 and each trace is f_lam dim U_lam
    for d, n in ((4, 6), (3, 8), (2, 12)):
        orc.clear_projector_cache()
        total = orc.TensorOperator.zero(d, n)
        for lam, p in orc.isotypical_projectors(d, n).items():
            assert p.trace() == dim_sym(lam) * dim_unitary(lam, d), (d, n, str(lam))
            total = total + p
        assert total == orc.TensorOperator.identity(d, n), (d, n)
    orc.clear_projector_cache()


def test_projector_commutes_with_action():
    result = verify.check_projector_commutation([(2, 4)], random.Random(0))
    assert result.passed and result.checked, result.failures
    # the sampled permutations are unranked, so n = 11 lists no group of 11! elements
    result = verify.check_projector_commutation([(2, 11)], random.Random(0))
    assert result.passed and result.checked == 352, result.failures


def test_partial_trace_examples():
    fam = orc.isotypical_projectors(2, 2)
    sym = fam[frame(2)]
    assert sym.partial_trace([1]) == Fraction(3, 2) * orc.TensorOperator.identity(2, 1)
    rng = random.Random(1)
    a = rand_op(rng, 2, 3)
    assert a.partial_trace([]) is a
    assert a.partial_trace([0, 1, 2]).entry(0, 0) == a.trace()
    assert a.partial_trace([0, 2]).trace() == a.trace()
    # integer-like sites are read as ints; partial_trace([0.5]) once raised numpy's IndexError
    assert a.partial_trace([np.int64(2), True]) == partial_trace_by_sums(a, (1, 2))
    assert a.partial_trace((False,)).mat.tolist() == partial_trace_by_sums(a, (0,)).mat.tolist()
    for sites in ([3], [-1], [0.5], [1.0], ["1"], [Fraction(1)]):
        with pytest.raises(ValueError):
            a.partial_trace(sites)


def test_entry_refuses_indices_outside_the_matrix():
    # entry(-1, -1) once read the last word's entry and entry(d^n, 0) raised IndexError;
    # integer-like indices are read as ints
    a = rand_op(random.Random(3), 2, 3)
    mat, dim = a.mat, 2**3
    assert [[a.entry(i, j) for j in range(dim)] for i in range(dim)] == (a.scale * mat).tolist()
    assert a.entry(np.int64(dim - 1), True) == a.scale * mat[dim - 1, 1]
    for i, j in ((-1, -1), (dim, 0), (0, dim), (0, -dim), (1.0, 0), (0, "1"), (Fraction(1), 0)):
        with pytest.raises(ValueError):
            a.entry(i, j)


def test_partial_trace_int64_and_object_routes(exact_routes):
    # entries near 2**60 overflow int64 once three qubit sites are traced and
    # entries near 2**62 once one is, so both routes meet the reference
    rng = random.Random(10)
    for d, n in ((2, 4), (3, 3)):
        for bound in (5, 2**60, 2**62):
            mat = rand_invariant(rng, d, n, bound // math.factorial(d))
            amax = max(abs(x) for x in mat.ravel())
            for stored in (mat, mat.astype(np.int64)):
                a = orc.TensorOperator(d, n, Fraction(1, 3), stored)
                for k in range(1, n + 1):
                    for sites in itertools.combinations(range(n), k):
                        exact_routes.clear()
                        out = a.partial_trace(sites)
                        assert exact_routes == [np.int64 if amax * d**k <= 2**63 - 1 else object]
                        assert out == partial_trace_by_sums(a, sites), (d, n, bound, sites)


def test_sum_at_the_int64_edge_leaves_int64(exact_routes):
    # stored entries of 2**62: A + A needs 2**63, one past int64, so the pair is handed back as Python ints
    a = orc.random_invariant(random.Random(0), 2, 2, 2**61, 2**61)
    assert a._bound() == 2**62 and a._vec.dtype == np.int64
    total = a + a
    assert exact_routes == [object]
    assert np.array_equal(total.mat, 2 * a.mat)


def test_sum_refuses_an_operator_of_another_shape():
    # a zero operator of another shape is refused too, not handed back as the sum
    for a, b in (
        (orc.TensorOperator.identity(2, 2), orc.TensorOperator.identity(2, 3)),
        (orc.TensorOperator.zero(2, 2), orc.TensorOperator.identity(3, 2)),
    ):
        for x, y in ((a, b), (b, a)):
            with pytest.raises(ValueError, match="operator shape mismatch"):
                x + y


def test_partial_trace_site_order():
    # tracing different single sites of a permutation-invariant operator agrees
    fam = orc.isotypical_projectors(2, 3)
    p = fam[frame(2, 1)]
    assert p.partial_trace([0]) == p.partial_trace([1]) == p.partial_trace([2])
    # not permutation-invariant: a product operator traces to the matching factors
    rng = random.Random(2)
    a, b = rand_op(rng, 2, 2), rand_op(rng, 2, 2)
    ab = a.kron(b)
    assert ab.partial_trace([2, 3]) == b.trace() * a
    assert ab.partial_trace([0, 1]) == a.trace() * b


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
    a = rand_op(rng, 2, 2)
    mixed_first = orc.insert_maximally_mixed(a, [0], 3)
    mixed_last = orc.insert_maximally_mixed(a, [2], 3)
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
    # at n = 9 the twirl of a transposition is the mean of the 36 transpositions
    transpositions = []
    for i, j in itertools.combinations(range(9), 2):
        images = list(range(9))
        images[i], images[j] = j, i
        transpositions.append(orc.perm_operator(Permutation(tuple(images)), 2))
    assert orc.twirl(transpositions[0]) == Fraction(1, 36) * sum(transpositions[1:], transpositions[0])


def test_twirl_equals_sum_over_all_permutations(exact_routes):
    rng = np.random.default_rng(11)
    cases = [(2, n) for n in range(0, 7)] + [(3, n) for n in range(0, 5)]
    for d, n in cases:
        a = orc.TensorOperator(d, n, Fraction(3, 7), invariant(rng.integers(-9, 10, size=(d**n, d**n)), d, n))
        exact_routes.clear()
        got, ref = orc.twirl(a), twirl_by_permutations(a)
        assert got.scale == ref.scale and np.array_equal(got.mat, ref.mat), (d, n)
        assert exact_routes == [np.int64]
    # Entries fit int64 but 4! max|a| does not: the orbit sums run on Python ints
    mat = invariant(rng.integers(-3, 4, size=(16, 16)), 2, 4) * 2**59
    mat[0, 0] = mat[15, 15] = 3 * 2**59  # the orbit of (0000, 0000) has one member, met 4! times
    a = orc.TensorOperator(2, 4, Fraction(1, 5), mat)
    exact_routes.clear()
    got, ref = orc.twirl(a), twirl_by_permutations(a)
    assert got.scale == ref.scale and np.array_equal(got.mat, ref.mat)
    assert exact_routes == [object]


def test_twirl_two_term_example():
    # |001><001| + |110><110| is unchanged by swapping the letters; the twirl spreads each
    # term over its orbit, 001, 010, 100 and 110, 101, 011, a third on each word
    mat = np.zeros((8, 8), dtype=object)
    mat[1, 1] = mat[6, 6] = 1
    out = orc.twirl(orc.TensorOperator(2, 3, Fraction(1), mat))
    expect = np.zeros((8, 8), dtype=object)
    for w in (1, 2, 4, 6, 5, 3):
        expect[w, w] = 1
    assert out == orc.TensorOperator(2, 3, Fraction(1, 3), expect)
    # |001><001| alone is refused: swapping the letters moves it onto |110><110|
    mat[6, 6] = 0
    with pytest.raises(ValueError, match="not invariant"):
        orc.TensorOperator(2, 3, Fraction(1), mat)


def test_depolarise_single_site():
    # on one site only multiples of the identity are relabel-invariant, and the channel fixes them
    ident = orc.TensorOperator.identity(2, 1)
    assert orc.depolarise_n(ident, Fraction(1, 2)) == ident
    mat = np.zeros((2, 2), dtype=object)
    mat[0, 0] = 1
    with pytest.raises(ValueError, match="not invariant"):
        orc.TensorOperator(2, 1, Fraction(1), mat)
    # |00><00| + |11><11| at q = 1/2: each site keeps its letter with weight 3/4
    mat = np.zeros((4, 4), dtype=object)
    mat[0, 0] = mat[3, 3] = 1
    out = orc.depolarise_n(orc.TensorOperator(2, 2, Fraction(1), mat), Fraction(1, 2))
    assert [out.entry(i, i) for i in range(4)] == [Fraction(5, 8), Fraction(3, 8), Fraction(3, 8), Fraction(5, 8)]
    assert out.entry(1, 2) == 0


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
                mat = rand_invariant(rng, d, n, bound)
                amax = max(abs(x) for x in mat.ravel())
                a = orc.TensorOperator(d, n, Fraction(1, rng.randint(1, 9)), mat)
                for q in qs:
                    exact_routes.clear()
                    got = orc.depolarise_n(a, q)
                    fits = max(amax, 1) * (q.denominator * d) ** n <= 2**63 - 1
                    assert exact_routes == [np.int64 if fits else object], (d, n, bound, q)
                    assert got == depolarise_by_subsets(a, q), (d, n, bound, q)
    # on no sites the channel is the identity and builds no map
    maps = orc._site_maps.cache_info().currsize, orc._shift_map.cache_info().currsize
    for d in (1, 2, 3):
        a = orc.TensorOperator(d, 0, Fraction(2, 3), np.array([[6]]))
        for q in qs:
            assert orc.depolarise_n(a, q) == depolarise_by_subsets(a, q) == a, (d, q)
    assert (orc._site_maps.cache_info().currsize, orc._shift_map.cache_info().currsize) == maps


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
    # diag(entry, 1, 1, entry) on two qubits is relabel-invariant
    def diagonal(entry, dtype=object):
        mat = np.zeros((4, 4), dtype=object)
        mat[0, 0] = mat[3, 3] = entry
        mat[1, 1] = mat[2, 2] = 1
        return mat.astype(dtype)

    for entry, stored in ((2**63 - 1, np.int64), (-(2**63), np.int64), (2**63, object), (-(2**63) - 1, object)):
        a = orc.TensorOperator(2, 2, Fraction(1), diagonal(entry))
        assert a._vec.dtype == stored and a.entry(0, 0) == a.entry(3, 3) == entry
    a = orc.TensorOperator(2, 2, Fraction(1), diagonal(2**63, np.uint64))
    assert a._vec.dtype == object and a.entry(0, 0) == 2**63
    # ``mat`` is a fresh Python-int copy: writing to it leaves the operator alone
    copy = a.mat
    assert all(type(v) is int for v in copy.ravel())
    copy[1, 1] = 5
    assert a.mat is not copy and a.entry(1, 1) == 1


def test_int64_and_object_matrices_agree():
    rng = random.Random(9)
    for bound in (5, 2**62):
        obj = rand_invariant(rng, 2, 3, bound // 2)
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


def dense_sizes():
    """Every (d, n) with d <= 4 that the dense size limit allows."""
    return [(d, n) for d in range(1, 5) for n in range(13) if max(d, 2) ** n <= orc.DIMENSION_CAP]


def test_word_maps_match_their_references():
    # the digit table, every 2- and 3-cycle class map (none when n < length) and sampled word
    # maps, at every size the dense limit allows, against product digits and inverted maps
    rng = random.Random(15)
    for d, n in dense_sizes():
        digits = orc._word_digits(d, n)
        assert digits.dtype == np.int64 and np.array_equal(digits, words_by_product(d, n)[0]), (d, n)
        for length in (2, 3):
            maps = orc._cycle_class_maps(d, n, length)
            assert maps.dtype == np.int64 and maps.shape == (math.perm(n, length) // length, d**n), (d, n, length)
            assert np.array_equal(maps, cycle_class_maps_one_at_a_time(d, n, length)), (d, n, length)
        for _ in range(5):
            images = tuple(rng.sample(range(n), n))
            assert np.array_equal(orc._word_map(images, d), word_map_by_inverse(images, d)), (d, n, images)


def test_shift_map_is_the_cyclic_shift():
    # one read through the map conjugates by i -> i + 1 mod n, and n reads put every entry back
    rng = random.Random(16)
    for d, n in dense_sizes():
        if n == 0:
            continue
        shift = orc._shift_map(d, n)
        moved = np.arange(len(shift))
        for _ in range(n):
            moved = moved.take(shift)
        assert np.array_equal(moved, np.arange(len(shift))), (d, n)
        if d**n <= 64:
            images = tuple((i + 1) % n for i in range(n))
            a = rand_op(rng, d, n)
            shifted = orc.TensorOperator._of(d, n, a.scale, a._layout, a._vec.take(shift))
            assert shifted == orc.conjugate_by_permutation(a, Permutation(images)), (d, n)
            assert shifted == conjugate_by_full_matrices(a, images), (d, n)
    orc.clear_projector_cache()


def test_matmul_matches_full_product(monkeypatch):
    # projector and permutation-operator pairs are block diagonal over letter counts
    for d, n in ((2, 4), (3, 3)):
        family = list(orc.isotypical_projectors(d, n).values())
        perms = [orc.perm_operator(s, d) for s in enumerate_group(n)][:8]
        for ops in (family, perms):
            for a, b in itertools.product(ops, repeat=2):
                assert a @ b == full_product(a, b)
    # a random pair, and a product with one projector factor
    rng = random.Random(11)
    a, b = rand_op(rng, 2, 3), rand_op(rng, 2, 3)
    assert a @ b == full_product(a, b)
    p = orc.isotypical_projectors(2, 3)[frame(2, 1)]
    assert p @ a == full_product(p, a) and a @ p == full_product(a, p)
    # an operator on (2, 4) stores the blocks of 0000, of the (3, 1) and of the
    # (2, 2) histograms: entries near 2**26 on the (3, 1) and (1, 3) blocks, summed over
    # the relabellings, pass 2**53 in the 4-word block only, and entries near 2**40
    # on the (2, 2) block overflow int64 in the 6-word block only: both of these
    # products take Python ints
    routes = []
    int_matmul = orc._int_matmul

    def recorded(x, y):
        product = int_matmul(x, y)
        routes.append((orc._matmul_route(x, y), product.dtype))
        return product

    monkeypatch.setattr(orc, "_int_matmul", recorded)
    mat = np.where(block_mask(2, 4), rand_matrix(rng, 2, 4).astype(np.int64), 0)
    _, low, big, high, _ = orc._letter_blocks(2, 4)
    for words, power in ((low, 26), (high, 26), (big, 40)):
        mat[np.ix_(words, words)] *= 2**power
    a = orc.TensorOperator(2, 4, Fraction(1, 3), sum(relabelled(mat, 2, 4)))
    assert [m for _, _, m in a._layout.spans] == [1, 4, 6]
    product = a @ a
    assert routes == [("float", np.int64), ("object", object), ("object", object)]
    assert product._vec.dtype == object and product == full_product(a, a)


def test_int_matmul_routes():
    # two int64 operands take float64 BLAS while m max|A| max|B| <= 2**53; a
    # larger bound or a Python-int operand takes Python ints; every route gives
    # the exact product
    def check(a, b, route):
        a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
        assert orc._matmul_route(a, b) == route, (a, b)
        got = orc._int_matmul(a, b)
        assert got.dtype == (object if route == "object" else np.int64)
        assert got.tolist() == (a.astype(object) @ b.astype(object)).tolist(), (a, b)

    check([[2**26, -(2**26)]], [[2**26], [-(2**26)]], "float")  # bound exactly 2**53
    check([[2**25] * 4], [[2**26]] * 4, "float")  # product exactly 2**53
    check([[2**26 + 1, 2**26]], [[2**26], [2**26]], "object")  # bound just above 2**53
    check([[2**52, 1]], [[2], [1]], "object")  # 2**53 + 1: no float64 holds it
    check([[1, 1]], [[2**53], [1]], "object")  # 2**53 + 1 again, max|A| = 1
    check([[7]], [[(2**63 - 1) // 7]], "object")  # bound exactly 2**63 - 1
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


def test_lagrange_rows_keep_int64_only_under_their_bound(exact_routes):
    # M = J on a 3-word block (the identity and both cyclic shifts), eigenvalue 3 on a constant start a:
    # with the values -1 > -2 > -4 the rows a (M + 1) and a (M + 1)(M + 2) are 4a and 20a, which meets the
    # bound max|start| (3 + 1)(3 + 2) exactly, inside int64 at the largest a it allows and past it at one more
    steps = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    for a in (orc._INT64_MAX // 20, orc._INT64_MAX // 20 + 1):
        rows = orc._lagrange_rows(np.full(3, a, dtype=np.int64), steps, [-1, -2, -4])
        expected = [([35 * a] * 3, 3), ([28 * a] * 3, -2), ([20 * a] * 3, 6)]
        assert [(num.tolist(), den) for num, den in rows] == expected, a
    assert exact_routes == [np.int64, object]


def test_family_independent_of_blas_threads():
    # the (2, 10) family is built with one and with two BLAS threads, each in
    # a fresh process, and in this one: its vectors hash the same every time
    script = (
        "import hashlib\n"
        "from isotwirl import oracle\n"
        "h = hashlib.sha256()\n"
        "for lam, op in oracle.isotypical_projectors(2, 10).items():\n"
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


def _non_integer_dense_calls():
    return (
        lambda: orc.isotypical_projectors(2.0, 3),
        lambda: orc.isotypical_projectors(2, 3.0),
        lambda: orc.TensorOperator.identity(2.0, 2),
        lambda: orc.TensorOperator.maximally_mixed(2.0, 2),
        lambda: orc.TensorOperator.zero(2, 2.0),
        lambda: orc.tensor_with_maximally_mixed(orc.TensorOperator.identity(2, 1), 1.0),
    )


def test_a_refused_dense_size_leaves_no_cache_behind():
    # isotypical_projectors(2.0, 3) and TensorOperator.identity(2.0, 2) once cached a float layout
    # under a key equal to (2, n), and every later dense call at that size raised IndexError
    def values():
        return (
            orc.isotypical_projectors(2, 3),
            orc.TensorOperator.identity(2, 2),
            orc.TensorOperator.maximally_mixed(2, 2),
            orc.TensorOperator.zero(2, 2),
        )

    def clear():  # every cache of the dense side, the layouts included, so a refused call finds them empty
        for cached in vars(orc).values():
            if hasattr(cached, "cache_clear"):
                cached.cache_clear()

    clear()
    fresh = values()
    clear()
    try:
        for call in _non_integer_dense_calls():
            with pytest.raises(ValueError, match="must be integers"):
                call()
        assert values() == fresh
        assert orc.TensorOperator.identity(np.int64(2), True) == orc.TensorOperator.identity(2, 1)
    finally:
        clear()


def test_clear_projector_cache_keeps_layouts():
    # operators built before a clear combine with operators built after it:
    # the site maps are dropped and rebuilt, the layouts they index stay
    def build():
        rng = random.Random(14)
        family = orc.isotypical_projectors(2, 3)
        return [family[frame(2, 1)], rand_op(rng, 2, 3, den=3), rand_op(rng, 2, 3)]

    def derived(op):
        return [op.kron(op), op.partial_trace([1]), orc.twirl(op), orc.depolarise_n(op, Fraction(1, 3))]

    maps = (orc._kron_maps, orc._trace_maps, orc._site_maps, orc._shift_map, orc._pair_orbits)
    before = build()
    before_derived = [derived(op) for op in before]
    assert all(cached.cache_info().currsize for cached in maps)
    orc.clear_projector_cache()
    assert [cached.cache_info().currsize for cached in maps] == [0] * 5
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
        for bound in (bound_a, bound_b):
            mat = rand_invariant(rng, 2, 2, bound // 2)
            mat[0, 0] = mat[3, 3] = bound
            mats.append(mat)
        for stored in (mats, [m.astype(np.int64) for m in mats]):
            a = orc.TensorOperator(2, 2, Fraction(1, 3), stored[0])
            b = orc.TensorOperator(2, 2, Fraction(2, 5), stored[1])
            exact_routes.clear()
            out = a.kron(b)
            assert exact_routes == [np.int64 if fits else object]
            assert out == orc.TensorOperator(2, 4, Fraction(2, 15), np.kron(a.mat, b.mat))


def test_inexact_matrices_rejected():
    with pytest.raises(ValueError):
        orc.TensorOperator(2, 1, Fraction(1), np.array([[0.5, 0], [0, 0.5]]))
    for dtype in (np.float32, np.complex128, np.bool_):
        with pytest.raises(ValueError):
            orc.TensorOperator(2, 1, Fraction(1), np.identity(2, dtype=dtype))


def test_non_integer_entries_rejected():
    # an object matrix holding a fraction or a float once had it truncated to an integer
    with pytest.raises(ValueError, match="not all integers"):
        orc.TensorOperator(2, 1, Fraction(1), np.array([[Fraction(1, 2), 0], [0, 0.75]], dtype=object))
    for entry in (Fraction(1, 3), 0.75, Fraction(2), 2.0, "1"):
        for big in (0, 2**64):  # the int64 route and the route for entries past int64
            mat = np.array([[big, 0], [0, 1]], dtype=object)
            mat[1, 0] = entry
            with pytest.raises(ValueError, match="not all integers"):
                orc.TensorOperator(2, 1, Fraction(1), mat)
    # integers of any type are kept exactly
    mat = np.zeros((4, 4), dtype=object)
    mat[0, 0], mat[3, 3] = np.int64(3), 3
    mat[1, 1] = mat[2, 2] = 2**64
    mat[1, 2], mat[2, 1] = True, np.int8(1)
    a = orc.TensorOperator(2, 2, Fraction(1), mat)
    assert [a.entry(i, j) for i, j in ((0, 0), (3, 3), (1, 1), (1, 2), (2, 1))] == [3, 3, 2**64, 1, 1]


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


@st.composite
def operator_pairs(draw):
    """(a, b) on one (d, n): each drawn invariant, with entries near 2**40 in one block or not.

    A draw zeroes a random matrix outside the letter blocks and sums it over
    every relabelling of the letters.  b is drawn on its own, or is a
    rescaled copy of a (an equal operator), possibly with one orbit of
    entries changed.
    """
    d, n = draw(st.sampled_from(PAIRING_SIZES))
    dim = d**n

    def operator(big):
        mat = np.array(draw(st.lists(st.integers(-3, 3), min_size=dim * dim, max_size=dim * dim)), dtype=object)
        mat = np.where(block_mask(d, n), mat.reshape(dim, dim), 0)
        if big:
            words = max(orc._letter_blocks(d, n), key=len)
            mat[np.ix_(words, words)] *= 2**40
            mat[words[0], words[0]] = 2**40 + 1
        return orc.TensorOperator(d, n, Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 5))),
                                  sum(relabelled(mat, d, n)))

    a = operator(draw(st.booleans()))
    relation = draw(st.sampled_from(["independent", "rescaled", "perturbed"]))
    if relation == "independent":
        return a, operator(draw(st.booleans()))
    c = draw(st.sampled_from([1, 2, -3]))
    mat = a.mat * c
    if relation == "perturbed":
        words = draw(st.sampled_from(orc._letter_blocks(d, n)))
        bump = np.zeros((dim, dim), dtype=object)
        bump[draw(st.sampled_from(words)), draw(st.sampled_from(words))] = 1
        mat += invariant(bump, d, n)
    return a, orc.TensorOperator(d, n, a.scale / c, mat)


@given(operator_pairs(), st.data())
def test_pairing_and_equality_match_full_matrices(pair, data):
    a, b = pair
    assert a.hs_product(b) == b.hs_product(a) == hs_product_by_full_matrices(a, b)
    full_equal = np.array_equal(a.scale * a.mat, b.scale * b.mat)
    assert (a == b) == (b == a) == full_equal
    # a random matrix, whole or masked to the letter blocks, is taken exactly when it is
    # zero outside the blocks and relabel-invariant, and refused otherwise
    d, n, dim = a.d, a.n, a.d**a.n
    raw = np.array(data.draw(st.lists(st.integers(-1, 1), min_size=dim * dim, max_size=dim * dim)), dtype=object)
    raw = raw.reshape(dim, dim)
    if data.draw(st.booleans()):
        raw = np.where(block_mask(d, n), raw, 0)
    if holds(raw, d, n):
        assert np.array_equal(orc.TensorOperator(d, n, Fraction(1), raw).mat, raw)
    else:
        with pytest.raises(ValueError, match="outside the letter-count blocks|not invariant"):
            orc.TensorOperator(d, n, Fraction(1), raw)


def check_site_operations(op, data):
    """Partial trace, conjugation, channel and twirl of ``op`` equal their full-matrix references; returns them."""
    n = op.n
    sites = tuple(sorted(data.draw(st.sets(st.integers(0, n - 1)))))
    images = tuple(data.draw(st.permutations(range(n))))
    q = data.draw(st.fractions(0, 1, max_denominator=6))
    outputs = [
        op.partial_trace(sites),
        orc.conjugate_by_permutation(op, Permutation(images)),
        orc.twirl(op),
        orc.depolarise_n(op, q),
    ]
    references = [
        partial_trace_by_sums(op, sites),
        conjugate_by_full_matrices(op, images),
        twirl_by_permutations(op),
        depolarise_by_subsets(op, q),
    ]
    assert outputs == references
    return outputs


@given(operator_pairs(), st.data())
def test_operations_match_full_matrices(pair, data):
    # operands with entries near 2**40 in one block or not
    a, b = pair
    assert a @ b == full_product(a, b) and b @ a == full_product(b, a)
    product = a.kron(b)
    assert product == orc.TensorOperator(a.d, 2 * a.n, a.scale * b.scale, np.kron(a.mat, b.mat))
    outputs = [a + b, a @ b, b @ a, product, orc.tensor_with_maximally_mixed(a, 1)]
    for op in (a, b):
        outputs += check_site_operations(op, data)
    # every operation maps operators the constructor takes to operators it takes
    for out in outputs:
        assert orc.TensorOperator(out.d, out.n, out.scale, out.mat) == out


def test_hs_product_int64_and_object_routes(exact_routes):
    # the 53 stored entries of (2, 4), each counted for the letter blocks it stands for:
    # 70 terms, one per word pair inside a letter block.  The pairing runs in int64
    # exactly when 70 max|A| max|B| fits
    mask = block_mask(2, 4)
    layout = orc._layout(2, 4)
    assert layout.size == 1 + 16 + 36 and layout.terms == len(layout.letter_pairs[0]) == mask.sum() == 70
    b = orc.TensorOperator(2, 4, Fraction(-2), np.where(mask, 1, 0))
    limit = (2**63 - 1) // 70
    for entry in (limit, limit + 1):
        mat = np.where(mask, 1, 0).astype(object)
        mat[0, 0] = mat[15, 15] = entry  # on 0000 and 1111
        a = orc.TensorOperator(2, 4, Fraction(1, 3), mat)
        exact_routes.clear()
        value = a.hs_product(b)
        assert exact_routes == [np.int64 if entry == limit else object]
        assert value == hs_product_by_full_matrices(a, b)
        # the entry on 0000 alone is not relabel-invariant, and ones outside the blocks are not held
        mat[15, 15] = 1
        with pytest.raises(ValueError, match="not invariant"):
            orc.TensorOperator(2, 4, Fraction(1, 3), mat)
        with pytest.raises(ValueError, match="outside the letter-count blocks"):
            orc.TensorOperator(2, 4, Fraction(1, 3), np.where(mask, mat, 1))


def test_pairings_against_a_list(exact_routes):
    # one operator against lists of operators at once: each integer pairing times the
    # two scales is the full-matrix tr(AB), from one _exact call
    rng = random.Random(15)
    for d, n in ((2, 3), (3, 2)):
        ops = [orc.isotypical_projectors(d, n)[enumerate_frames(d, n)[1]], rand_op(rng, d, n, den=3), rand_op(rng, d, n)]
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
    # a projector against random operators: a random full matrix is refused, and so is its
    # masked draw, which is zero outside the letter blocks but not relabel-invariant; summed
    # over the relabellings it is taken
    rng = random.Random(13)
    for d, n in ((2, 3), (3, 2), (3, 3)):
        sym = orc.isotypical_projectors(d, n)[enumerate_frames(d, n)[1]]
        whole = rand_matrix(rng, d, n)
        with pytest.raises(ValueError, match="outside the letter-count blocks"):
            orc.TensorOperator(d, n, Fraction(1, 3), whole)
        with pytest.raises(ValueError, match="not invariant"):
            orc.TensorOperator(d, n, Fraction(1, 3), np.where(block_mask(d, n), whole, 0))
        for other in (orc.TensorOperator(d, n, Fraction(1, 3), invariant(whole, d, n)), rand_op(rng, d, n)):
            assert sym.hs_product(other) == other.hs_product(sym) == hs_product_by_full_matrices(sym, other)
            assert not (sym == other) and not (other == sym)
            held = (other + sym) - other
            assert sym == held and held == sym
            assert held.hs_product(other) == sym.hs_product(other)


def test_representative_match_is_not_invariance():
    # each letter block of diag(5, 1, 2, 5) matches its sorted block's entry under the
    # sorting relabelling, but swapping the letters moves 01 onto 10: refused
    with pytest.raises(ValueError, match="not invariant"):
        orc.TensorOperator(2, 2, Fraction(1), np.diag([5, 1, 2, 5]).astype(object))
    a = orc.TensorOperator(2, 2, Fraction(1), np.diag([5, 2, 2, 5]).astype(object))
    assert a.partial_trace([1]) == orc.TensorOperator(2, 1, Fraction(1), np.diag([7, 7]).astype(object))
    assert orc.TensorOperator(2, 2, Fraction(1), np.diag([5, 1, 1, 5])).hs_product(a) == 5 * 5 + 2 + 2 + 5 * 5
    # the (2, 2) block of (2, 4) is its own sorted block, so it matches it whatever it
    # holds; one entry there that swapping the letters moves (0011 onto 1100) is refused
    rng = random.Random(16)
    mat = rand_invariant(rng, 2, 4)
    orc.TensorOperator(2, 4, Fraction(1), mat)
    mat[3, 3] += 1
    with pytest.raises(ValueError, match="not invariant"):
        orc.TensorOperator(2, 4, Fraction(1), mat)
    # at d = 3 a sum over the relabellings of one generator alone is not invariant either
    letter = np.where(block_mask(3, 2), rand_matrix(rng, 3, 2), 0)
    moves = list(relabelled(letter, 3, 2))  # identity, (1 2), (0 1), (0 1 2), (0 2 1), (0 2)
    for group in ((0, 3, 4), (0, 2)):
        with pytest.raises(ValueError, match="not invariant"):
            orc.TensorOperator(3, 2, Fraction(1), sum(moves[i] for i in group))
    assert orc.TensorOperator(3, 2, Fraction(1), sum(moves)).mat.tolist() == sum(moves).tolist()


def random_operator_rows():
    """Every (d, n) at which verify draws random operators.

    The partial-trace check draws at (2, 3) and (2, 2); the twirl and channel checks at their rows.
    """
    rows = {(2, 3), (2, 2)}
    for check in verify.CHECKS:
        if check.name in ("twirl_properties", "depolarise_channel_identities"):
            rows.update(check.row.items())
    return sorted(rows)


def test_random_draws_are_held_nonzero_and_seeded():
    # the 1 x 1 block of the histogram (n) is d! times one draw, taken without 0: from [-5, 5]
    # with 0 allowed, seeds 7 and 16 of these left it zero at (2, 3)
    for seed in range(20):
        assert orc.random_invariant(random.Random(seed), 2, 3, -5, 5).entry(0, 0) != 0, seed
    # the seeds the CLI runs use
    for seed in (0, 7):
        for d, n in random_operator_rows():
            op = verify._random_operator(random.Random(seed), d, n)
            mat = op.mat
            assert orc.TensorOperator(d, n, op.scale, mat) == op
            assert all(mat[np.ix_(words, words)].any() for words in orc._layout(d, n).blocks), (seed, d, n)
            assert verify._random_operator(random.Random(seed), d, n) == op
            assert op.transpose().mat.tolist() == mat.T.tolist()
            # the channel check's PSD input
            r = verify._random_operator(random.Random(seed), d, n, 3)
            psd = r.transpose() @ r
            assert psd.is_symmetric() and orc.is_positive_semidefinite(psd)
    # scale 1 and entries at most d! max(|lo|, |hi|); draws past int64 keep Python ints
    drawn = orc.random_invariant(random.Random(0), 3, 3, -2**70, 2**70)
    assert drawn.scale == 1 and drawn._vec.dtype == object and 0 < drawn._bound() <= 6 * 2**70
    assert orc.random_invariant(random.Random(0), 3, 3, -5, 5)._vec.dtype == np.int64


def test_no_module_but_oracle_reads_an_oracle_private():
    # the layout, the word maps and the relabellings stay behind the oracle's public names
    package = Path(isotwirl.__file__).parent
    reads = []
    for path in sorted(package.glob("*.py")):
        if path.stem == "oracle":
            continue
        tree = ast.parse(path.read_text(), str(path))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in ("oracle", "isotwirl.oracle"):
                reads += [f"{path.name}:{node.lineno} {a.name}" for a in node.names if a.name.startswith("_")]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {a.asname or a.name for a in node.names if a.name in ("oracle", "isotwirl.oracle")}
        reads += [
            f"{path.name}:{node.lineno} {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in names and node.attr.startswith("_")
        ]
    assert reads == []


def test_sorted_layout_storage():
    # the sum over sorted histograms of the squared multinomial, against every letter block
    for (d, n), size, letter in (((3, 6), 13262, 35169), ((2, 8), 8885, 12870), ((4, 5), 5026, 31504)):
        layout = orc._layout(d, n)
        assert layout.size == size and layout.terms == len(layout.letter_pairs[0]) == letter
        assert all(len(p._vec) == size for p in orc.isotypical_projectors(d, n).values())
    # one letter block, one stored entry, where there is one word
    for d, n in ((1, 4), (3, 0)):
        assert orc._layout(d, n).spans == [(0, 1, 1)] and orc._layout(d, n).terms == 1


def test_psd_checks():
    fam = orc.isotypical_projectors(2, 3)
    for p in fam.values():
        assert orc.is_positive_semidefinite(p)
    sym, anti = fam[frame(3)], fam[frame(2, 1)]
    assert not orc.is_positive_semidefinite(sym - anti)
    # zero diagonal with nonzero off-diagonal entry, between 01 and 10
    mat = np.zeros((4, 4), dtype=object)
    mat[1, 2] = mat[2, 1] = 1
    assert not orc.is_positive_semidefinite(orc.TensorOperator(2, 2, Fraction(1), mat))
    assert orc.is_positive_semidefinite(orc.TensorOperator.zero(2, 2))


PSD_SIZES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]


@st.composite
def psd_cases(draw):
    """(operator, kind, singular): a Gram matrix, minus eps I, or with a zero-diagonal row.

    The Gram matrix is masked to the letter blocks and summed over every
    relabelling of the letters, which keeps it PSD.  When ``singular``, the
    last column of each letter block of the drawn factor is minus the sum of
    the others, so every block's indicator vector is a null vector of each
    term of that sum.
    """
    d, n = draw(st.sampled_from(PSD_SIZES))
    dim = d**n
    rank = draw(st.integers(0, dim - 1))
    r = np.array(draw(st.lists(st.integers(-3, 3), min_size=rank * dim, max_size=rank * dim)), dtype=object)
    r = r.reshape(rank, dim)
    singular = draw(st.booleans())
    if singular:
        for words in orc._letter_blocks(d, n):
            r[:, words[-1]] = -r[:, words[:-1]].sum(axis=1)
    mat = invariant(r.T @ r if rank else np.zeros((dim, dim), dtype=object), d, n)
    kind = draw(st.sampled_from(["gram", "minus_eps", "zero_diag"]))
    den = draw(st.integers(1, 40))
    if kind == "minus_eps":
        mat = den * mat - np.identity(dim, dtype=object)
    elif kind == "zero_diag":
        # clear the rows and columns of a word's orbit, then join it to another word of its block
        i = draw(st.integers(0, dim - 1))
        orbit = sorted({moved[i] for moved in relabellings(d, n)})
        mat[orbit, :] = 0
        mat[:, orbit] = 0
        partners = [j for j in np.flatnonzero(block_mask(d, n)[i]) if j != i]
        if partners:
            bump = np.zeros((dim, dim), dtype=object)
            j = draw(st.sampled_from(partners))
            bump[i, j] = bump[j, i] = draw(st.sampled_from([-2, -1, 1, 2]))
            mat = mat + invariant(bump, d, n)
    scale = Fraction(draw(st.integers(-2, 2)), den)
    return orc.TensorOperator(d, n, scale, mat), kind, singular


@given(psd_cases(), st.data())
def test_psd_matches_fraction_ldl(case, data):
    # Bareiss elimination runs block by block, each stored block standing for its relabelled copies
    a, kind, singular = case
    verdict = orc.is_positive_semidefinite(a)
    assert verdict == psd_by_fraction_ldl(a)
    assert a @ a == full_product(a, a)
    check_site_operations(a, data)
    if a.scale == 0 or (kind == "gram" and a.scale > 0):
        assert verdict
    elif singular and kind == "minus_eps" and a.scale > 0:
        assert not verdict  # the Gram matrix has a null vector


def test_scale_representation_equality():
    ident = orc.TensorOperator.identity(2, 1)
    doubled = orc.TensorOperator(2, 1, Fraction(1, 2), 2 * np.identity(2, dtype=object))
    assert ident == doubled
    assert (Fraction(1, 3) * ident).reduced() == Fraction(1, 3) * ident
    # a zero scale makes any matrix it takes the zero operator; a matrix outside the
    # letter blocks is refused whatever the scale
    dense = orc.TensorOperator(2, 2, Fraction(0), np.where(block_mask(2, 2), 1, 0))
    assert dense == orc.TensorOperator.zero(2, 2) == dense
    with pytest.raises(ValueError, match="outside the letter-count blocks"):
        orc.TensorOperator(2, 2, Fraction(0), np.ones((4, 4), dtype=np.int64))
