"""The contract of the public API: every size is read by one reader, every frame held to d by one rule, and no
returned value shares state with a cache.

A public call that takes a size (d, n, k, l, a cap or a seed) reads it as an
int through ``frames._integers`` before it touches any cache, and either
returns or refuses with ``ValueError``: a float, a string or a ``Fraction`` is
never read as the integer it may equal, and a value below its least is
refused with one message.  A frame of more than d rows is refused with one
message too, the frame written as the CLI writes it.
"""

import copy
import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from test_frames import _non_integer_size_calls
from isotwirl import cli, frames, horn, lr, oracle, spectra, symmetric_group, verify
from isotwirl.frames import MAX_BOXES, MAX_ROW_BUDGET, dim_unitary, enumerate_frames, format_frame, frame
from isotwirl.horn import HornTriple, branching_disjoint, check_split, horn_feasible, within_support_window
from isotwirl.oracle import DIMENSION_CAP, TensorOperator
from isotwirl.spectra import (
    SpectralTable,
    channel_output_spectrum,
    paired_block_overlap,
    tail_bound_exponent,
    twirl_spectrum,
    xy_entropy_bound,
)
from isotwirl.symmetric_group import CYCLE_TYPE_CAP, GROUP_ENUMERATION_CAP, Permutation, enumerate_group
from isotwirl.verify import RunConfig

MODULES = (cli, frames, horn, lr, oracle, spectra, symmetric_group, verify)


def _caches():
    """Every ``functools`` cache of the package, by module and name."""
    return {
        (module.__name__, name): cached
        for module in MODULES
        for name, cached in vars(module).items()
        if hasattr(cached, "cache_info")
    }


def _refused_calls():
    """Sizes the package once read as ints, read past, or let reach a cache: each must raise ``ValueError``."""
    op = TensorOperator.identity(2, 1)  # an operand, built before the refused calls
    return (
        *_non_integer_size_calls(),
        lambda: dim_unitary(frame(3, 1), 2.0),
        lambda: paired_block_overlap(frame(2, 1), frame(1), frame(1, 1), 2.0),
        lambda: enumerate_group(3.0),
        lambda: symmetric_group.cycle_types(CYCLE_TYPE_CAP + 1),
        lambda: HornTriple(frame(2, 1), frame(1), frame(1, 1), 2.0),
        lambda: within_support_window(frame(4), frame(2, 2), 2.0, 1),
        lambda: within_support_window(frame(4), frame(2, 2), 2, 0.5),
        lambda: tail_bound_exponent(frame(4), frame(2, 2), "1/10", 4.0),
        lambda: format_frame(frame(2, 1), 2.0),
        lambda: RunConfig(d_max=3.0),
        lambda: RunConfig(n_max=Fraction(4)),
        lambda: verify.run_suite("nope"),
        lambda: verify.run_suite(["x"]),
        lambda: SpectralTable(2, 2, 1, ["1", "0"]),
        lambda: SpectralTable(2, 2, 1, [0.5, 0.5]),
        lambda: xy_entropy_bound(frame(2, 2), 5),
        lambda: oracle.tensor_with_maximally_mixed(op, 0.0),
        lambda: oracle.insert_maximally_mixed(op, [], 1.0),
        lambda: oracle.insert_maximally_mixed(op, [0.0], 2),
    )


def _valid_values():
    return (
        dim_unitary(frame(3, 1), 2),
        paired_block_overlap(frame(2, 1), frame(1), frame(1, 1), 2),
        list(enumerate_group(3)),
        horn_feasible(HornTriple(frame(2, 1), frame(1), frame(1, 1), 2)),
        within_support_window(frame(4), frame(2, 2), 2, 1),
        tail_bound_exponent(frame(4), frame(2, 2), "1/10", 4),
        format_frame(frame(2, 1), 2),
        channel_output_spectrum(frame(3, 1), "1/2", 2),
        twirl_spectrum(frame(3, 1), 1, 2),
        SpectralTable(2, 2, 1, [1, 0]).total(),
        xy_entropy_bound(frame(2, 2), 4),
        enumerate_frames(2, 3),
    )


def test_a_refused_size_touches_no_cache():
    # dim_unitary(frame(3, 1), 2.0) once reached the dim U cache, enumerate_group(3.0) returned a generator,
    # within_support_window(frame(4), frame(2, 2), 2, 0.5) returned False and SpectralTable(2, 2, 1, ["1", "0"])
    # was built; valid calls afterwards equal their values from fresh caches
    def clear():
        for cached in _caches().values():
            cached.cache_clear()

    clear()
    fresh = _valid_values()
    clear()
    try:
        for call in _refused_calls():
            before = {name: cached.cache_info() for name, cached in _caches().items()}
            with pytest.raises(ValueError):
                call()
            assert {name: cached.cache_info() for name, cached in _caches().items()} == before
        assert _valid_values() == fresh
    finally:
        clear()


def _bump(table):
    table.numerators[0] += 1


# each public call that returns a container or a table, with the edits a caller could make to what it got
EDITED_RESULTS = {
    "isotypical_projectors": (
        lambda: oracle.isotypical_projectors(2, 3),
        (dict.clear, lambda family: family.__setitem__(frame(3), TensorOperator.zero(2, 3))),
    ),
    "enumerate_frames": (
        lambda: enumerate_frames(3, 4),
        (list.clear, lambda frames: frames.__setitem__(0, frame(1)), lambda frames: frames.append(frame(5))),
    ),
    "lr_nonzero_pairs": (
        lambda: lr.lr_nonzero_pairs(frame(3, 2, 1), 3, 3, 3),
        (list.clear, lambda pairs: pairs.__setitem__(0, (frame(3), frame(3))), lambda pairs: pairs.append(None)),
    ),
    "twirl_spectrum": (lambda: twirl_spectrum(frame(3, 2, 1), 2, 3), (_bump,)),
    "channel_output_spectrum": (lambda: channel_output_spectrum(frame(3, 2, 1), "1/3", 3), (_bump,)),
}


@pytest.mark.parametrize("name", sorted(EDITED_RESULTS))
def test_an_edited_result_leaves_the_next_call_unchanged(name):
    # isotypical_projectors once returned the dict its cache held: after .clear() the next call returned no frames
    call, edits = EDITED_RESULTS[name]
    before = copy.deepcopy(call())
    for edit in edits:
        edit(call())
        assert call() == before


def test_a_cached_projector_cannot_be_written():
    family = oracle.isotypical_projectors(2, 3)
    assert list(family) == enumerate_frames(2, 3)
    for p in family.values():
        with pytest.raises(ValueError, match="read-only"):
            p._vec[0] += 1
    assert oracle.isotypical_projectors(2, 3) == family


def test_one_message_for_a_size_below_its_least():
    calls = (
        (lambda: dim_unitary(frame(1), 0), "d must be >= 1, got d=0"),
        (lambda: enumerate_frames(0, 2), "d must be >= 1, got d=0"),
        (lambda: enumerate_frames(2, -1), "n must be >= 0, got n=-1"),
        (lambda: twirl_spectrum(frame(), 0, -1), "d must be >= 1, got d=-1"),
        (lambda: tail_bound_exponent(frame(), frame(), 0, 0), "n must be >= 1, got n=0"),
        (lambda: TensorOperator.zero(2, -1), "n must be >= 0, got n=-1"),
        (lambda: TensorOperator.zero(0, 1), "d must be >= 1, got d=0"),
        (lambda: HornTriple(frame(), frame(), frame(), 0), "d must be >= 1, got d=0"),
        (lambda: within_support_window(frame(), frame(), 1, -1), "k must be >= 0, got k=-1"),  # d at its least
        (lambda: enumerate_group(-1), "n must be >= 0, got n=-1"),
        (lambda: symmetric_group.cycle_types(-2), "n must be >= 0, got n=-2"),
        (lambda: check_split(frame(4), frame(4), 0, -1, 2), "k must be >= 0, got k=-1"),
        (lambda: lr.lr_nonzero_pairs(frame(4), -1, 5, 2), "l must be >= 0, got l=-1"),
        (lambda: format_frame(frame(), 0), "d must be >= 1, got d=0"),
    )
    for call, message in calls:
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == message


def test_one_message_for_a_frame_past_d_rows():
    # every site that holds a frame to d rows says so in one text, the frame written as the CLI writes it
    calls = (
        lambda: frame(2, 1, 1, 0).padded(2),
        lambda: format_frame(frame(2, 1, 1), 2),
        lambda: HornTriple(frame(2, 1, 1), frame(2, 1), frame(1), 2),
        lambda: twirl_spectrum(frame(2, 1, 1), 1, 2),
        lambda: channel_output_spectrum(frame(2, 1, 1), "1/2", 2),
        lambda: branching_disjoint(frame(2, 1, 1), frame(4), 2, 2, 2),
        lambda: within_support_window(frame(2, 1, 1), frame(4), 2, 1),
    )
    for call in calls:
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == "frame 2,1,1 has more than 2 rows"


def test_xy_entropy_bound_refuses_k_outside_the_frame():
    for k in (5, -1):
        with pytest.raises(ValueError) as refused:
            xy_entropy_bound(frame(2, 2), k)
        assert str(refused.value) == f"k={k} outside 0..4"


def test_run_config_reports_its_sizes_as_ints():
    # RunConfig(n_max=True) once wrote "n_max": true into the report
    for cfg in (RunConfig(d_max=np.int64(2), n_max=True, seed=np.int64(7)), RunConfig(n_max=np.int64(1))):
        assert all(type(value) is int for value in (cfg.d_max, cfg.n_max, cfg.seed))
    report = verify.run_suite("xybound", RunConfig(n_max=True))
    assert report.to_json_obj()["config"]["n_max"] == 1
    assert '"n_max": 1,' in json.dumps(report.to_json_obj(), indent=2)
    with pytest.raises(ValueError, match="must be integers"):
        RunConfig(seed="0")


def sizes(*past):
    """A drawn size: an int of -1..3 or one past a cap, a bool, a numpy int, a float, a string or a ``Fraction``."""
    ints = st.integers(-1, 3)
    return st.one_of(
        ints | st.sampled_from(past) if past else ints,
        st.booleans(),
        ints.map(np.int64),
        st.floats() | ints.map(float),
        st.text("12 .x", max_size=2),
        st.builds(Fraction, ints, st.integers(1, 3)),
    )


D = sizes(MAX_ROW_BUDGET + 1)
N = sizes(*(cap + 1 for cap in MAX_BOXES.values()))
DENSE_N = sizes(DIMENSION_CAP.bit_length())  # 2**13 > DIMENSION_CAP: past the dense cap at every d
SMALL = sizes()

# each public call that takes a size, with one strategy per size; other arguments are fixed and small
SIZED_CALLS = {
    "dim_unitary": (lambda d: dim_unitary(frame(2, 1), d), D),
    "paired_block_overlap": (lambda d: paired_block_overlap(frame(2, 1), frame(1), frame(1, 1), d), D),
    "enumerate_group": (lambda n: next(enumerate_group(n), None), sizes(GROUP_ENUMERATION_CAP + 1)),
    "HornTriple": (lambda d: horn_feasible(HornTriple(frame(2, 1), frame(1), frame(1, 1), d)), D),
    "within_support_window": (lambda d, k: within_support_window(frame(3), frame(2, 1), d, k), D, SMALL),
    "tail_bound_exponent": (lambda n: tail_bound_exponent(frame(3), frame(2, 1), "1/10", n), SMALL),
    "format_frame": (lambda d: format_frame(frame(2, 1), d), D),
    "RunConfig": (lambda d, n, seed: json.dumps(RunConfig(d_max=d, n_max=n, seed=seed).to_json_obj()), D, N, SMALL),
    "SpectralTable": (lambda d, n, den, a, b: SpectralTable(d, n, den, [a, b]).total(), D, N, SMALL, SMALL, SMALL),
    "xy_entropy_bound": (lambda k: xy_entropy_bound(frame(2, 1), k), SMALL),
    "enumerate_frames": (enumerate_frames, D, N),
    "cycle_types": (symmetric_group.cycle_types, sizes(CYCLE_TYPE_CAP + 1)),
    "channel_output_spectrum": (lambda d: channel_output_spectrum(frame(2, 1), "1/3", d), D),
    "twirl_spectrum": (lambda k, d: twirl_spectrum(frame(2, 1), k, d), SMALL, D),
    "partial_trace_decomposition": (lambda k, d: spectra.partial_trace_decomposition(frame(2, 1), k, d), SMALL, D),
    "lr_nonzero_pairs": (lambda l, k, d: lr.lr_nonzero_pairs(frame(2, 1), l, k, d), SMALL, SMALL, D),
    "branching_disjoint": (lambda l, k, d: branching_disjoint(frame(2, 1), frame(3), l, k, d), SMALL, SMALL, D),
    "xy_optimize": (lambda l, k, d: spectra.xy_optimize(frame(2, 1), frame(3), l, k, d), SMALL, SMALL, D),
    "within_entropy_bound": (frames.within_entropy_bound, SMALL, SMALL, SMALL),
    "TensorOperator.zero": (TensorOperator.zero, D, DENSE_N),
    "TensorOperator.identity": (TensorOperator.identity, D, DENSE_N),
    "TensorOperator.maximally_mixed": (TensorOperator.maximally_mixed, D, DENSE_N),
    "isotypical_projectors": (oracle.isotypical_projectors, D, DENSE_N),
    "random_invariant": (lambda d, n: oracle.random_invariant(random.Random(0), d, n, -2, 2), D, DENSE_N),
    "perm_operator": (lambda d: oracle.perm_operator(Permutation((1, 2, 0)), d), D),
    "tensor_with_maximally_mixed": (
        lambda k: oracle.tensor_with_maximally_mixed(TensorOperator.identity(2, 1), k), DENSE_N
    ),
    "insert_maximally_mixed": (
        lambda p, n: oracle.insert_maximally_mixed(TensorOperator.identity(2, 1), [p], n), SMALL, DENSE_N
    ),
}


@settings(max_examples=300)
@given(st.data())
def test_every_public_size_is_read_or_refused(data):
    # a call returns or raises ValueError, whatever it is given for a size: never TypeError or another error
    call, *kinds = SIZED_CALLS[data.draw(st.sampled_from(sorted(SIZED_CALLS)), label="call")]
    args = [data.draw(kind) for kind in kinds]
    try:
        call(*args)
    except ValueError:
        pass
