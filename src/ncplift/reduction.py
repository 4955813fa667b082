"""End-to-end pipelines: instances to lifted learning and back.

``build_learning_instance`` turns a syndrome instance into a lifted
example oracle: the rows of H labeled by t, extended to their span, and
pushed through the blockwise-parity gadget.  ``search`` runs a learner
on that oracle, prunes the hypothesis, and solves for the parities
inside its path sets that agree with the lifted span source exactly,
the lifts of the solutions of H s = t on whole blocks.  The first
candidate is folded back to base coordinates and verified with
``verify_certificate`` on the original instance, so any returned vector
is an exact solution of H x = t.
``decide`` wraps the same learning step with explicit size and error
thresholds and compares the tree's exact distance to the lifted source,
again in closed form over the span, with the error gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .dtree import DecisionTree, ParityIndexSet, prune

# Not called here: the benchmark's tracer (bench/spans.py) wraps
# ``reduction.estimate_distance``, ``reduction.exact_lifted_agreement``,
# ``reduction.make_span_oracle`` and ``reduction.path_support_sets``,
# and a traced run fails when any of those names is missing.
from .dtree import estimate_distance, path_support_sets  # noqa: F401
from .gadget import exact_lifted_agreement  # noqa: F401
from .span import make_span_oracle  # noqa: F401
from .f2 import BitVector, mat_vec
from .gadget import (
    SAMPLE_MAX_BYTES,
    GadgetOracle,
    GadgetParams,
    sample_bytes,
    solution_unions,
    span_lifted_tree_error,
    unlift_parity,
)
from .instance import (
    SyndromeInstance,
    UnsatisfiableInstanceError,
    normalize_syndrome,
    syndrome_to_labeled_set,
)
from .learners import LearnerBudget
from .span import SpanOracle

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
    ``UnsatisfiableInstanceError``.  The rows that normalization keeps
    are independent, so their span is built without a second
    elimination.  Emitted examples have arity ell * n.  An instance with
    no rows yields the oracle over the all-even-blocks strings labeled 0.
    """
    norm = normalize_syndrome(inst)
    labeled = syndrome_to_labeled_set(norm)
    return GadgetOracle(SpanOracle._independent(labeled), GadgetParams(cfg.ell, norm.n))


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
    """Refuse, before anything else, a sparsity k past n, and before
    any sampling, a sample past ``SAMPLE_MAX_BYTES``.

    The learner refuses a depth budget ell*k past its arity ell*n in
    any case; refusing k > n first keeps the 2**(ell*k) that
    ``decide``'s thresholds build within ell*n bits.  The gadget oracle packs its sample
    at base arity n and lifts it to ell*n columns
    (``GadgetOracle.sample_columns``).  The tree depth ell*k needs no
    other bound: every tree walk costs the distinct nodes, and the
    learner's search and the path sets are bounded where built.
    """
    if inst.k > inst.n:
        raise ValueError(f"sparsity k = {inst.k} exceeds the number of coordinates n = {inst.n}")
    lifted = cfg.ell * inst.n
    need = sample_bytes(inst.n, cfg.learner_samples, lifted)
    if need > SAMPLE_MAX_BYTES:
        raise ValueError(
            f"packing {cfg.learner_samples} samples of arity {inst.n} and lifting them "
            f"to arity {lifted} takes about {need} bytes, "
            f"past SAMPLE_MAX_BYTES = {SAMPLE_MAX_BYTES}"
        )


def _learn(
    inst: SyndromeInstance, cfg: ReductionConfig, learner, rng: Random
) -> tuple[GadgetOracle, DecisionTree] | None:
    """The lifted oracle and the learner's tree on it, with depth budget
    ell*k, which bounds its size by 2**(ell*k); None when the system is
    inconsistent."""
    try:
        oracle = build_learning_instance(inst, cfg)
    except UnsatisfiableInstanceError:
        return None
    depth_cap = cfg.ell * inst.k
    budget = LearnerBudget(depth_cap, cfg.learner_samples)
    return oracle, learner(oracle, budget, rng)


def decide(
    inst: SyndromeInstance, cfg: ReductionConfig, learner, rng: Random
) -> DecideReport:
    """Accept when a small learned tree tracks the lifted labels.

    Runs the learner with depth budget ell*k, so at most 2**(ell*k)
    leaves, where the size cap 2**floor(ell*alpha*k/3) stops, then
    computes the tree's exact distance to the lifted source
    (``span_lifted_tree_error``).  Accepts exactly when the hypothesis
    fits the size cap and the distance is at most the gate plus
    tolerance and below 1/2: a tree at 1/2 tracks nothing,
    and the gate plus tolerance, below 1/2 for every alpha, rounds to
    1/2 as a float once alpha is large.  Thresholds that cannot
    separate planted from far instances (gate plus tolerance <= 0, or a
    size cap below 2**(ell*k)) are rejected as ``vacuous-gate`` before
    any learning.
    An inconsistent system is a rejection with the reason recorded.

    Raises:
        ValueError: before anything else, when k exceeds n; before any
            sampling, when packing the learner's sample would pass
            ``SAMPLE_MAX_BYTES``; from the learner, when its search
            would pass ``f2.SEARCH_MAX_COST``; from the tree error,
            when the tree's path sets or solution unions pass
            ``gadget.UNIONS_MAX``.
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


def extract_parity(tree: DecisionTree, oracle: GadgetOracle) -> list[ParityIndexSet]:
    """The parities inside the tree's path sets that agree with the
    lifted source exactly, in ascending size, then lexicographic order.

    The oracle's base must be a span (a ``SpanOracle``), as every
    pipeline builds it.  By the span dichotomy a subset of a path set
    agrees with the lifted span source 1 or 1/2: 1 exactly when it is a
    union of whole blocks lifting a solution of H s = t, which
    ``solution_unions`` solves for on the whole blocks of each path set,
    with no scan.  Every other subset is at 1/2 and is not returned.

    If the tree sits at distance 1/2 - gamma < 1/2 from the source, its
    Fourier weight on those lifts is 2 * gamma, so the list is not
    empty, and each of its entries has agreement 1 >= 1/2 + gamma /
    4**depth.

    Raises:
        ValueError: before solving, when the base is not a span; from
            ``solution_unions``, before any union is built, when the
            tree's path sets or its unions pass ``gadget.UNIONS_MAX``.
    """
    base = oracle.base
    if not isinstance(base, SpanOracle):
        raise ValueError(f"extraction needs a span base, not {type(base).__name__}")
    found = map(ParityIndexSet.from_mask, solution_unions(tree, base, oracle.params))
    return sorted(found, key=lambda s: (len(s.indices), s.indices))


@dataclass(frozen=True)
class SearchReport:
    """Outcome of the certificate search pipeline."""

    solution: BitVector | None
    reason: str  # ok | unsatisfiable | no-candidate-verified
    hypothesis_size: int | None
    pruned_depth: int | None
    # How many parities ``extract_parity`` returned for the pruned tree.
    candidates: int
    hypothesis: DecisionTree | None = None

    @property
    def ok(self) -> bool:
        return self.solution is not None


def search(
    inst: SyndromeInstance, cfg: ReductionConfig, learner, rng: Random
) -> SearchReport:
    """Learn, prune, extract, fold back, and verify exactly.

    The learner gets depth budget ell*k, so at most 2**(ell*k) leaves; the
    hypothesis is pruned at PRUNE_CONSTANT * ceil(log2(size)), and the
    first candidate is folded to base blocks and verified with
    ``verify_certificate`` at sparsity cap floor(PRUNE_CONSTANT *
    ceil(log2(size)) / ell), so a returned vector always satisfies
    H x = t within that bound.  Each candidate folds to a solution of
    weight at most |P| / ell, P a path set of the pruned tree, and the
    list is in size order, so no later one verifies where the first fails.

    Raises:
        ValueError: before anything else, when k exceeds n; before any
            sampling, when packing the learner's sample would pass
            ``SAMPLE_MAX_BYTES``; from the learner, when its search
            would pass ``f2.SEARCH_MAX_COST``; from extraction, when the pruned tree's path sets or solution
            unions pass ``gadget.UNIONS_MAX``.
    """
    _check_work(inst, cfg)
    learned = _learn(inst, cfg, learner, rng)
    if learned is None:
        return SearchReport(None, "unsatisfiable", None, None, 0)
    oracle, tree = learned
    prune_depth = PRUNE_CONSTANT * (tree.size - 1).bit_length()  # ceil(log2(size))
    pruned = prune(tree, prune_depth)
    candidates = extract_parity(pruned, oracle)
    if candidates:
        x = BitVector.from_support(unlift_parity(candidates[0], oracle.params).indices, inst.n)
        if verify_certificate(inst, x, prune_depth // cfg.ell):
            return SearchReport(x, "ok", tree.size, prune_depth, len(candidates), pruned)
    return SearchReport(None, "no-candidate-verified", tree.size, prune_depth, len(candidates), pruned)


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
