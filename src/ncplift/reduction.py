"""End-to-end pipelines: instances to lifted learning and back.

``build_learning_instance`` turns a syndrome instance into a lifted
example oracle: the rows of H labeled by t, extended to their span, and
pushed through the blockwise-parity gadget.  ``search`` runs a learner
on that oracle, prunes the hypothesis, reads candidate parities off its
path supports, and ranks them by their exact agreement with the lifted
span source, which the span dichotomy gives in closed form (1 or 1/2).
Each candidate is folded back to base coordinates and the first one
that passes ``verify_certificate`` on the original instance is
returned, so any returned vector is an exact solution of H x = t.
``decide`` wraps the same learning step with explicit size and error
thresholds and compares the tree's exact distance to the lifted source,
again in closed form over the span, with the error gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .dtree import DecisionTree, ParityIndexSet, path_support_sets, prune

# Not called here: the benchmark's tracer (bench/spans.py) wraps
# ``reduction.estimate_distance``, and a traced run fails when the name
# is missing.
from .dtree import estimate_distance  # noqa: F401
from .f2 import BitVector, mat_vec
from .gadget import (
    GadgetOracle,
    GadgetParams,
    exact_lifted_agreement,
    span_lifted_agreement,
    span_lifted_tree_error,
    unlift_parity,
)
from .instance import (
    SyndromeInstance,
    UnsatisfiableInstanceError,
    normalize_syndrome,
    syndrome_to_labeled_set,
)
from .learners import SAMPLE_MAX_BYTES, LearnerBudget, sample_bytes
from .span import SpanOracle, make_span_oracle

__all__ = [
    "ReductionConfig",
    "ReductionMeta",
    "DecideReport",
    "SearchReport",
    "build_learning_instance",
    "decide",
    "extract_parity",
    "search",
    "verify_certificate",
]

# Work bound on extraction.  ``path_support_sets`` visits every subset
# of every path, 4**depth visits for a complete tree, and the learned
# tree's depth is at most ell*k: depth 12 takes about 2 s, each further
# level four times that.
EXTRACT_MAX_DEPTH = 12


@dataclass(frozen=True)
class ReductionConfig:
    """Knobs shared by the pipelines.

    ``learner_samples`` fills the learner's sample budget, the size and
    depth limits being derived from the instance.  Extraction and the
    distance ``decide`` gates on are exact and have no knob.
    """

    ell: int = 2
    prune_constant: int = 3
    learner_samples: int = 2000

    def __post_init__(self) -> None:
        if self.ell < 2:
            raise ValueError("block width must be >= 2")
        if self.prune_constant < 2:
            raise ValueError("prune constant must be >= 2")
        if self.learner_samples < 1:
            raise ValueError("learner sample budget must be positive")


@dataclass(frozen=True)
class ReductionMeta:
    """Shape of a built learning instance."""

    n: int
    m: int
    k: int
    alpha: Fraction
    ell: int
    arity: int


def build_learning_instance(
    inst: SyndromeInstance, cfg: ReductionConfig
) -> tuple[GadgetOracle, ReductionMeta]:
    """Lifted example oracle for an instance, plus its shape record.

    Normalizes first; an instance whose system is inconsistent raises
    ``UnsatisfiableInstanceError``.  Emitted examples have arity
    ell * n.  An instance with no rows yields the oracle over the
    all-even-blocks strings labeled 0.
    """
    norm = normalize_syndrome(inst)
    labeled = syndrome_to_labeled_set(norm)
    span = make_span_oracle(labeled)
    params = GadgetParams(cfg.ell, norm.n)
    meta = ReductionMeta(norm.n, norm.m, norm.k, norm.alpha, cfg.ell, params.lifted_n)
    return GadgetOracle(span, params), meta


@dataclass(frozen=True)
class DecideReport:
    """Outcome of the threshold decision procedure."""

    accepted: bool
    # ok-yes | distance-gate | size-gate | unsatisfiable | vacuous-gate
    reason: str
    hypothesis_size: int | None
    distance: Fraction | None
    size_cap: int
    error_gate: float
    tolerance: float
    meta: ReductionMeta | None
    hypothesis: DecisionTree | None = None


def _thresholds(inst: SyndromeInstance, cfg: ReductionConfig) -> tuple[int, float, float]:
    """Size cap, error gate and tolerance for decide.

    With r = ell * alpha * k: trees of size up to 2**(r/3) on a far
    instance stay at distance at least 1/2 - 2**(-r/6), while a planted
    parity reaches distance 0, so the gate sits at
    1/2 - 2*2**(-r/6) plus a third of the gap.  Meaningful once the
    gate plus tolerance is positive and the size cap holds a parity
    tree of depth ell*k (alpha >= 3 at ell*k >= 4); ``decide`` rejects
    any other input as a vacuous gate.  The size cap stops at
    2**(ell*k), the most leaves the depth budget allows, and the
    margin's exponent at 1100, past which the float is 0.0 anyway.
    """
    r = cfg.ell * inst.alpha * inst.k
    size_cap = 1 << min(max(0, math.floor(r / 3)), cfg.ell * inst.k)
    margin = 2.0 ** -float(min(r / 6, 1100))
    error_gate = 0.5 - 2.0 * margin
    tolerance = margin / 3.0
    return size_cap, error_gate, tolerance


def _check_sample_size(inst: SyndromeInstance, cfg: ReductionConfig) -> None:
    arity = cfg.ell * inst.n
    need = sample_bytes(arity, cfg.learner_samples)
    if need > SAMPLE_MAX_BYTES:
        raise ValueError(
            f"packing {cfg.learner_samples} samples of arity {arity} takes about "
            f"{need} bytes, past SAMPLE_MAX_BYTES = {SAMPLE_MAX_BYTES}"
        )


def decide(
    inst: SyndromeInstance, cfg: ReductionConfig, learner, rng: Random
) -> DecideReport:
    """Accept when a small learned tree tracks the lifted labels.

    Runs the learner with depth budget ell*k and size budget
    2**floor(ell*alpha*k/3), then computes the tree's exact distance to
    the lifted source (``span_lifted_tree_error``).  Accepts exactly
    when the hypothesis fits the size cap and the distance is at most
    the gate plus tolerance and below 1/2: a tree at 1/2 tracks nothing,
    and the gate plus tolerance, below 1/2 for every alpha, rounds to
    1/2 as a float once alpha is large.  Thresholds that cannot
    separate planted from far instances (gate plus tolerance <= 0, or a
    size cap below 2**(ell*k)) are rejected as ``vacuous-gate`` before
    any learning.
    An inconsistent system is a rejection with the reason recorded.

    Raises:
        ValueError: before any sampling, when packing the learner's
            sample would pass ``SAMPLE_MAX_BYTES``; from the learner,
            when its search would pass ``f2.SEARCH_MAX_COST``.
    """
    _check_sample_size(inst, cfg)
    size_cap, error_gate, tolerance = _thresholds(inst, cfg)
    if error_gate + tolerance <= 0 or size_cap < 1 << (cfg.ell * inst.k):
        return DecideReport(False, "vacuous-gate", None, None, size_cap, error_gate, tolerance, None)
    try:
        oracle, meta = build_learning_instance(inst, cfg)
    except UnsatisfiableInstanceError:
        return DecideReport(False, "unsatisfiable", None, None, size_cap, error_gate, tolerance, None)
    budget = LearnerBudget(size_cap, cfg.ell * inst.k, cfg.learner_samples)
    tree = learner(oracle, meta.arity, budget, rng)
    if tree.size > size_cap:
        return DecideReport(False, "size-gate", tree.size, None, size_cap, error_gate, tolerance, meta, tree)
    distance = span_lifted_tree_error(tree, oracle.base, oracle.params)
    if distance < Fraction(1, 2) and distance <= error_gate + tolerance:
        return DecideReport(True, "ok-yes", tree.size, distance, size_cap, error_gate, tolerance, meta, tree)
    return DecideReport(False, "distance-gate", tree.size, distance, size_cap, error_gate, tolerance, meta, tree)


def extract_parity(
    tree: DecisionTree, oracle: GadgetOracle
) -> list[tuple[ParityIndexSet, Fraction]]:
    """Candidate parities from the tree's path supports, best first.

    Every candidate gets its exact agreement with the lifted source:
    over a span base from the span dichotomy in closed form
    (``span_lifted_agreement``, one pass over the basis), over any
    other base (a ``FinitePmf``) by ``exact_lifted_agreement``.
    Sorting is by agreement descending, then smaller sets, then
    lexicographic order, so the ranking is total.

    If the tree sits at distance 1/2 - gamma from the source, the top
    candidate has agreement at least 1/2 + gamma / 4**depth.
    """
    if tree.depth > EXTRACT_MAX_DEPTH:
        raise ValueError(f"extraction capped at tree depth {EXTRACT_MAX_DEPTH}")
    base = oracle.base
    agreement = span_lifted_agreement if isinstance(base, SpanOracle) else exact_lifted_agreement
    scored = [(s, agreement(base, s, oracle.params)) for s in path_support_sets(tree)]
    scored.sort(key=lambda item: (-item[1], len(item[0]), item[0].indices))
    return scored


@dataclass(frozen=True)
class SearchReport:
    """Outcome of the certificate search pipeline."""

    solution: BitVector | None
    reason: str  # ok | unsatisfiable | no-candidate-verified
    hypothesis_size: int | None
    pruned_depth: int | None
    candidates: int
    meta: ReductionMeta | None
    hypothesis: DecisionTree | None = None

    @property
    def ok(self) -> bool:
        return self.solution is not None


def search(
    inst: SyndromeInstance, cfg: ReductionConfig, learner, rng: Random
) -> SearchReport:
    """Learn, prune, extract, fold back, and verify exactly.

    The learner gets depth budget ell*k and size budget 2**(ell*k); the
    hypothesis is pruned at prune_constant * ceil(log2(size)); every
    candidate parity is folded to base blocks and kept only when
    ``verify_certificate`` accepts it on the original instance with
    sparsity cap floor(prune_constant * ceil(log2(size)) / ell), so a
    returned vector always satisfies H x = t within that bound;
    failures report which stage gave out.

    Raises:
        ValueError: before any sampling, when ell*k passes
            ``EXTRACT_MAX_DEPTH`` or packing the learner's sample would
            pass ``SAMPLE_MAX_BYTES``; from the learner, when its search
            would pass ``f2.SEARCH_MAX_COST``.
    """
    if cfg.ell * inst.k > EXTRACT_MAX_DEPTH:
        raise ValueError(
            f"extraction from a tree of depth ell*k = {cfg.ell * inst.k} visits up to "
            f"4**{cfg.ell * inst.k} path subsets, past EXTRACT_MAX_DEPTH = {EXTRACT_MAX_DEPTH}"
        )
    _check_sample_size(inst, cfg)
    try:
        oracle, meta = build_learning_instance(inst, cfg)
    except UnsatisfiableInstanceError:
        return SearchReport(None, "unsatisfiable", None, None, 0, None)
    depth_cap = cfg.ell * meta.k
    budget = LearnerBudget(1 << depth_cap, depth_cap, cfg.learner_samples)
    tree = learner(oracle, meta.arity, budget, rng)
    log_size = max(1, tree.size).bit_length() - 1
    if 1 << log_size != tree.size:
        log_size += 1  # ceil(log2(size))
    prune_depth = cfg.prune_constant * log_size
    pruned = prune(tree, prune_depth)
    ranked = extract_parity(pruned, oracle)
    sparsity_cap = cfg.prune_constant * log_size // cfg.ell
    for s, _agreement in ranked:
        x = BitVector.from_support(unlift_parity(s, oracle.params).indices, meta.n)
        if verify_certificate(inst, x, sparsity_cap):
            return SearchReport(x, "ok", tree.size, prune_depth, len(ranked), meta, pruned)
    return SearchReport(None, "no-candidate-verified", tree.size, prune_depth, len(ranked), meta, pruned)


def verify_certificate(inst: SyndromeInstance, x: BitVector, k_max: int) -> bool:
    """Exact check: H x = t and sparsity within the cap.

    Raises:
        ValueError: when ``k_max`` is negative or the lengths disagree.
    """
    if k_max < 0:
        raise ValueError(f"sparsity cap must be >= 0, got {k_max}")
    if x.length != inst.n:
        raise ValueError(f"certificate length {x.length} does not match n={inst.n}")
    return mat_vec(inst.h, x).mask == inst.t.mask and x.sparsity <= k_max
