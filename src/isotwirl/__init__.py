"""isotwirl: exact spectra of depolarised permutation-invariant states.

The package computes, in exact rational arithmetic, how the site-wise
depolarising channel redistributes weight between the isotypical
(symmetric-Werner) blocks of (C^d)^(x n), twice over: once through dense
operators built from the full symmetric-group action (the oracle), and once
through dimension formulas and skew standard-tableau counts (the fast
path).  The verification suites prove the two agree entry by entry and check
the support-window and exponential-tail statements that make the fast path
useful.
"""

from .frames import (
    ProbabilityPair,
    YoungFrame,
    binary_entropy,
    dim_sym,
    dim_unitary,
    enumerate_frames,
    frame,
    format_frame,
    parse_frame,
    rel_entropy,
)
from .horn import (
    HornTriple,
    basic_horn_holds,
    branching_disjoint,
    horn_feasible,
    within_support_window,
)
from .lr import LRTableau, SkewShape, lr_coefficient, lr_nonzero_pairs, lr_tableaux, lr_via_characters
from .oracle import (
    TensorOperator,
    depolarise_n,
    insert_maximally_mixed,
    is_positive_semidefinite,
    isotypical_projectors,
    perm_operator,
    tensor_with_maximally_mixed,
    twirl,
)
from .spectra import (
    BranchingTable,
    SpectralTable,
    XYExtrema,
    channel_output_spectrum,
    channel_tail_bound,
    paired_block_overlap,
    partial_trace_decomposition,
    twirl_spectrum,
    xy_entropy_bound,
    xy_optimize,
)
from .symmetric_group import CycleType, Permutation, character, cycle_types, enumerate_group
from .verify import RunConfig, run_suite

__all__ = [
    "BranchingTable",
    "CycleType",
    "HornTriple",
    "LRTableau",
    "Permutation",
    "ProbabilityPair",
    "RunConfig",
    "SkewShape",
    "SpectralTable",
    "TensorOperator",
    "XYExtrema",
    "YoungFrame",
    "basic_horn_holds",
    "binary_entropy",
    "branching_disjoint",
    "channel_output_spectrum",
    "channel_tail_bound",
    "character",
    "cycle_types",
    "depolarise_n",
    "dim_sym",
    "dim_unitary",
    "enumerate_frames",
    "enumerate_group",
    "frame",
    "format_frame",
    "horn_feasible",
    "insert_maximally_mixed",
    "is_positive_semidefinite",
    "isotypical_projectors",
    "lr_coefficient",
    "lr_nonzero_pairs",
    "lr_tableaux",
    "lr_via_characters",
    "paired_block_overlap",
    "parse_frame",
    "partial_trace_decomposition",
    "perm_operator",
    "rel_entropy",
    "run_suite",
    "tensor_with_maximally_mixed",
    "twirl",
    "twirl_spectrum",
    "within_support_window",
    "xy_entropy_bound",
    "xy_optimize",
]
