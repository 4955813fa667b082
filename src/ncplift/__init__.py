"""Sparse nearest-codeword solving through proper decision-tree learning.

The pipeline: a syndrome instance becomes a labeled-example source (rows
of H labeled by t), the labels extend linearly over the row span, each
coordinate is lifted to a parity block, a decision-tree learner is run
on the lifted examples, and candidate parities read off the hypothesis
fold back to sparse solution vectors that are verified exactly.  Exact
brute-force oracles for every step live alongside and back the
``selftest`` suites.
"""

from .dtree import (
    DecisionTree,
    Leaf,
    Node,
    ParityIndexSet,
    estimate_distance,
    eval_tree,
    exact_distance,
    exact_uniform_fourier,
    format_tree,
    parse_tree,
    path_support_sets,
    prune,
    reduce_tree,
    truth_table,
)
from .f2 import (
    BitMatrix,
    BitVector,
    FormatError,
    dual_basis,
    format_matrix,
    format_vector,
    mat_vec,
    parse_matrix,
    parse_vector,
    rank,
    row_reduce,
)
from .gadget import (
    FinitePmf,
    GadgetOracle,
    GadgetParams,
    Restriction,
    blockwise_parity,
    enumerate_lifted,
    exact_lifted_agreement,
    exact_lifted_tree_error,
    exact_restriction_probability,
    is_block_complete,
    lift_parity,
    lift_sample,
    span_lifted_agreement,
    span_lifted_tree_error,
    unlift_parity,
)
from .instance import (
    LabeledSet,
    NcpInstance,
    SyndromeInstance,
    UnsatisfiableInstanceError,
    brute_force_nearest,
    generator_to_syndrome,
    load_instance,
    normalize_syndrome,
    random_planted,
    read_generator_instance,
    read_syndrome_instance,
    syndrome_to_labeled_set,
    write_generator_instance,
    write_syndrome_instance,
)
from .learners import (
    BudgetExhaustedError,
    LearnerBudget,
    exhaustive_parity_learner,
    greedy_learner,
    parity_to_tree,
    planted_learner,
)
from .reduction import (
    DecideReport,
    ReductionConfig,
    ReductionMeta,
    SearchReport,
    build_learning_instance,
    decide,
    extract_parity,
    search,
    verify_certificate,
)
from .selftest import CriterionResult, run_all
from .span import (
    SpanOracle,
    enumerate_span,
    exact_disagreement,
    make_span_oracle,
    sample_span,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # f2
    "FormatError", "BitVector", "BitMatrix", "mat_vec", "rank", "row_reduce",
    "dual_basis", "format_matrix", "parse_matrix",
    "format_vector", "parse_vector",
    # instance
    "UnsatisfiableInstanceError", "NcpInstance", "SyndromeInstance", "LabeledSet",
    "generator_to_syndrome", "syndrome_to_labeled_set", "normalize_syndrome",
    "brute_force_nearest", "random_planted", "write_syndrome_instance",
    "read_syndrome_instance", "write_generator_instance", "read_generator_instance",
    "load_instance",
    # span
    "SpanOracle", "make_span_oracle", "sample_span", "enumerate_span",
    "exact_disagreement",
    # gadget
    "GadgetParams", "FinitePmf", "GadgetOracle", "Restriction", "blockwise_parity",
    "lift_sample", "lift_parity", "unlift_parity", "is_block_complete",
    "exact_lifted_agreement", "span_lifted_agreement", "exact_restriction_probability",
    "exact_lifted_tree_error", "span_lifted_tree_error", "enumerate_lifted",
    # dtree
    "ParityIndexSet", "Leaf", "Node", "DecisionTree", "eval_tree", "truth_table",
    "reduce_tree", "prune", "path_support_sets", "exact_uniform_fourier",
    "exact_distance", "estimate_distance", "format_tree", "parse_tree",
    # learners
    "LearnerBudget", "BudgetExhaustedError", "parity_to_tree",
    "exhaustive_parity_learner", "greedy_learner", "planted_learner",
    # reduction
    "ReductionConfig", "ReductionMeta", "DecideReport", "SearchReport",
    "build_learning_instance", "decide", "extract_parity", "search",
    "verify_certificate",
    # selftest
    "CriterionResult", "run_all",
]
