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

from .dtree import DecisionTree, ParityIndexSet, path_masks, path_support_sets, prune

# Not called here: the benchmark's tracer (bench/spans.py) wraps
# ``reduction.estimate_distance`` and ``reduction.exact_lifted_agreement``,
# and a traced run fails when either name is missing.
from .dtree import estimate_distance  # noqa: F401
from .gadget import exact_lifted_agreement  # noqa: F401
from .f2 import BitVector, mat_vec
from .gadget import (
    GadgetOracle,
    GadgetParams,
    block_unions,
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
    "DecideReport",
    "SearchReport",
    "build_learning_instance",
    "decide",
    "extract_parity",
    "search",
    "verify_certificate",
]

# Work bound on the learned tree, whose depth is at most ell*k.  The
# learner's parity tree has 2**depth leaves on 2*depth + 2 shared nodes,
# but decide's one walk visits every path, and extraction costs leaves +
# sum over distinct path sets P of 2**|P|, 2**depth for a parity tree
# but up to 4**depth for a generic one.  At depth 16 a planted search
# takes about 0.35 s and decide about 0.15 s on a 2-vCPU host (Python
# 3.11); each further level doubles that.
TREE_MAX_DEPTH = 16

# ``search`` prunes the hypothesis at PRUNE_CONSTANT * ceil(log2(size))
# and caps a certificate's sparsity at that depth over ell.  The
# learner's parity tree of depth d has 2**d leaves, so pruning at 3d
# never cuts it: the constant only sets the sparsity cap.
PRUNE_CONSTANT = 3


@dataclass(frozen=True)
class ReductionConfig:
    """Knobs shared by the pipelines.

    ``learner_samples`` fills the learner's sample budget, the size and
    depth limits being derived from the instance.  Extraction and the
    distance ``decide`` gates on are exact and have no knob.
    """

    ell: int = 2
    learner_samples: int = 2000

    def __post_init__(self) -> None:
        if self.ell < 2:
            raise ValueError("block width must be >= 2")
        if self.learner_samples < 1:
            raise ValueError("learner sample budget must be positive")


def build_learning_instance(inst: SyndromeInstance, cfg: ReductionConfig) -> GadgetOracle:
    """Lifted example oracle for an instance.

    Normalizes first; an instance whose system is inconsistent raises
    ``UnsatisfiableInstanceError``.  Emitted examples have arity
    ell * n.  An instance with no rows yields the oracle over the
    all-even-blocks strings labeled 0.
    """
    norm = normalize_syndrome(inst)
    labeled = syndrome_to_labeled_set(norm)
    return GadgetOracle(make_span_oracle(labeled), GadgetParams(cfg.ell, norm.n))


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


def _check_work(inst: SyndromeInstance, cfg: ReductionConfig) -> None:
    """Refuse, before any sampling, a learning step past the work bounds.

    The gadget oracle packs its sample at base arity n and lifts it to
    ell*n columns (``GadgetOracle.sample_columns``), and the learner may
    build a tree of depth ell*k.
    """
    lifted = cfg.ell * inst.n
    need = sample_bytes(inst.n, cfg.learner_samples, lifted)
    if need > SAMPLE_MAX_BYTES:
        raise ValueError(
            f"packing {cfg.learner_samples} samples of arity {inst.n} and lifting them "
            f"to arity {lifted} takes about {need} bytes, "
            f"past SAMPLE_MAX_BYTES = {SAMPLE_MAX_BYTES}"
        )
    depth = cfg.ell * inst.k
    if depth > TREE_MAX_DEPTH:
        raise ValueError(
            f"the learner's tree of depth ell*k = {depth} may have 2**{depth} leaves, "
            f"past TREE_MAX_DEPTH = {TREE_MAX_DEPTH}"
        )


def _learn(
    inst: SyndromeInstance, cfg: ReductionConfig, learner, rng: Random
) -> tuple[GadgetOracle, DecisionTree] | None:
    """The lifted oracle and the learner's tree on it, with depth budget
    ell*k and size budget 2**(ell*k); None when the system is
    inconsistent."""
    try:
        oracle = build_learning_instance(inst, cfg)
    except UnsatisfiableInstanceError:
        return None
    depth_cap = cfg.ell * inst.k
    budget = LearnerBudget(1 << depth_cap, depth_cap, cfg.learner_samples)
    return oracle, learner(oracle, oracle.length, budget, rng)


def decide(
    inst: SyndromeInstance, cfg: ReductionConfig, learner, rng: Random
) -> DecideReport:
    """Accept when a small learned tree tracks the lifted labels.

    Runs the learner with depth budget ell*k and size budget 2**(ell*k),
    where the size cap 2**floor(ell*alpha*k/3) stops, then computes the
    tree's exact distance to the lifted source
    (``span_lifted_tree_error``).  Accepts exactly
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
            sample would pass ``SAMPLE_MAX_BYTES`` or ell*k passes
            ``TREE_MAX_DEPTH``; from the learner, when its search would
            pass ``f2.SEARCH_MAX_COST``.
    """
    _check_work(inst, cfg)
    size_cap, error_gate, tolerance = _thresholds(inst, cfg)
    if error_gate + tolerance <= 0 or size_cap < 1 << (cfg.ell * inst.k):
        return DecideReport(False, "vacuous-gate", None, None, size_cap, error_gate, tolerance)
    learned = _learn(inst, cfg, learner, rng)
    if learned is None:
        return DecideReport(False, "unsatisfiable", None, None, size_cap, error_gate, tolerance)
    oracle, tree = learned
    if tree.size > size_cap:
        return DecideReport(False, "size-gate", tree.size, None, size_cap, error_gate, tolerance, tree)
    distance = span_lifted_tree_error(tree, oracle.base, oracle.params)
    if distance < Fraction(1, 2) and distance <= error_gate + tolerance:
        return DecideReport(True, "ok-yes", tree.size, distance, size_cap, error_gate, tolerance, tree)
    return DecideReport(False, "distance-gate", tree.size, distance, size_cap, error_gate, tolerance, tree)


def extract_parity(
    tree: DecisionTree, oracle: GadgetOracle
) -> list[tuple[ParityIndexSet, Fraction]]:
    """Candidate parities from the tree's path supports, best first.

    The oracle's base must be a span (a ``SpanOracle``), as every
    pipeline builds it.  Every candidate gets its exact agreement with
    the lifted source from the span dichotomy in closed form, exactly 1
    or 1/2: a candidate that covers some block partly is at 1/2, so
    only the unions of whole blocks inside a path set (``block_unions``)
    are scored, by ``span_lifted_agreement`` (one pass over the basis).
    The ranking is by agreement descending, then smaller sets, then
    lexicographic order, so it is total.

    If the tree sits at distance 1/2 - gamma from the source, the top
    candidate has agreement at least 1/2 + gamma / 4**depth.

    Raises:
        ValueError: before enumerating, when the base is not a span or
            the tree's distinct path sets P give sum 2**|P| past
            2**``TREE_MAX_DEPTH``.
    """
    base = oracle.base
    if not isinstance(base, SpanOracle):
        raise ValueError(f"extraction needs a span base, not {type(base).__name__}")
    pathmasks = path_masks(tree)
    subsets = sum(1 << pathmask.bit_count() for pathmask in pathmasks)
    if subsets > 1 << TREE_MAX_DEPTH:
        raise ValueError(
            f"extraction would enumerate {subsets} path subsets, "
            f"past 2**TREE_MAX_DEPTH = {1 << TREE_MAX_DEPTH}"
        )
    params = oracle.params
    unions = {union for pathmask in pathmasks for union in block_unions(pathmask, params)}
    top = {
        union
        for union in unions
        if span_lifted_agreement(base, ParityIndexSet.from_mask(union), params) == 1
    }
    # The candidates come in ascending size, then lexicographic order,
    # which the ranking keeps within each agreement.
    candidates = path_support_sets(pathmasks)
    one, half = Fraction(1), Fraction(1, 2)
    ranked = [(s, one) for s in candidates if s.mask in top]
    ranked += [(s, half) for s in candidates if s.mask not in top]
    return ranked


@dataclass(frozen=True)
class SearchReport:
    """Outcome of the certificate search pipeline."""

    solution: BitVector | None
    reason: str  # ok | unsatisfiable | no-candidate-verified
    hypothesis_size: int | None
    pruned_depth: int | None
    candidates: int
    hypothesis: DecisionTree | None = None

    @property
    def ok(self) -> bool:
        return self.solution is not None


def search(
    inst: SyndromeInstance, cfg: ReductionConfig, learner, rng: Random
) -> SearchReport:
    """Learn, prune, extract, fold back, and verify exactly.

    The learner gets depth budget ell*k and size budget 2**(ell*k); the
    hypothesis is pruned at PRUNE_CONSTANT * ceil(log2(size)); every
    candidate parity is folded to base blocks and kept only when
    ``verify_certificate`` accepts it on the original instance with
    sparsity cap floor(PRUNE_CONSTANT * ceil(log2(size)) / ell), so a
    returned vector always satisfies H x = t within that bound;
    failures report which stage gave out.

    Raises:
        ValueError: before any sampling, when packing the learner's
            sample would pass ``SAMPLE_MAX_BYTES`` or ell*k passes
            ``TREE_MAX_DEPTH``; from the learner, when its search would
            pass ``f2.SEARCH_MAX_COST``.
    """
    _check_work(inst, cfg)
    learned = _learn(inst, cfg, learner, rng)
    if learned is None:
        return SearchReport(None, "unsatisfiable", None, None, 0)
    oracle, tree = learned
    log_size = max(1, tree.size).bit_length() - 1
    if 1 << log_size != tree.size:
        log_size += 1  # ceil(log2(size))
    prune_depth = PRUNE_CONSTANT * log_size
    pruned = prune(tree, prune_depth)
    ranked = extract_parity(pruned, oracle)
    sparsity_cap = prune_depth // cfg.ell
    for s, _agreement in ranked:
        x = BitVector.from_support(unlift_parity(s, oracle.params).indices, inst.n)
        if verify_certificate(inst, x, sparsity_cap):
            return SearchReport(x, "ok", tree.size, prune_depth, len(ranked), pruned)
    return SearchReport(None, "no-candidate-verified", tree.size, prune_depth, len(ranked), pruned)


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
