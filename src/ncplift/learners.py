"""Proper decision-tree learners over labeled-example oracles.

A learner is any callable ``learner(oracle, arity, budget, rng)``
that draws at most ``budget.sample_budget`` (point, label) pairs from
``oracle.sample(rng)`` and returns a decision tree whose size and depth
respect the budget (a hard contract).  No clock bounds it: a search
whose cost estimate passes ``f2.SEARCH_MAX_COST`` raises ``ValueError``
before it starts.

The exhaustive learner is a consistent learner, which is all the
reduction needs (Blumer, Ehrenfeucht, Haussler and Warmuth, "Occam's
Razor", IPL 1987): it returns a parity tree fitting every drawn example
when one fits within the budget, and otherwise the better constant.
The greedy learner is a negative control.
"""

from __future__ import annotations

from dataclasses import dataclass
# Not called here: the benchmark's tracer (bench/spans.py) counts
# ``learners.combinations`` calls, and a traced run fails when the name
# is missing.
from itertools import combinations  # noqa: F401
from random import Random

from .dtree import DecisionTree, Leaf, Node, ParityIndexSet, complement_tree
from .f2 import SEARCH_MAX_COST, BitMatrix, sparse_xor_search

__all__ = [
    "LearnerBudget",
    "parity_to_tree",
    "exhaustive_parity_learner",
    "greedy_learner",
    "planted_learner",
]

# Bound, in bytes, on ``sample_bytes``.  Learners do not check it;
# whoever sets the sample budget does, before any sampling.
SAMPLE_MAX_BYTES = 1 << 27


@dataclass(frozen=True)
class LearnerBudget:
    """Resource limits a learner must respect; the size and depth
    limits are binding on the returned tree."""

    size_budget: int
    depth_budget: int
    sample_budget: int

    def __post_init__(self) -> None:
        if self.size_budget < 1 or self.depth_budget < 0 or self.sample_budget < 1:
            raise ValueError("budgets must be positive")


def parity_to_tree(s: ParityIndexSet) -> DecisionTree:
    """Complete tree computing the parity over s.

    Queries the indices in ascending order on every path; each leaf is
    the parity of the branch decisions, so the tree has depth len(s)
    and size 2**len(s).  The empty set gives Leaf(0).
    """
    return _parity_subtree(s.indices, 0, 0)


def _parity_subtree(indices: tuple[int, ...], pos: int, acc: int) -> DecisionTree:
    # Module level, not a nested closure: a recursive closure is a
    # reference cycle that outlives the call until the cyclic collector
    # runs.
    if pos == len(indices):
        return Leaf(acc)
    return Node(
        indices[pos],
        _parity_subtree(indices, pos + 1, acc),
        _parity_subtree(indices, pos + 1, acc ^ 1),
    )


def _sample_columns(
    oracle, arity: int, budget: LearnerBudget, rng: Random
) -> tuple[list[int], int, int]:
    """A fresh sample packed into per-coordinate bit columns (bit r of
    a column is example r), with the label column and the sample count.

    The labels ride in as column 0 of the transposed matrix.
    """
    draws = (oracle.sample(rng) for _ in range(budget.sample_budget))
    rows = tuple(point.mask << 1 | label for point, label in draws)
    label_col, *cols = BitMatrix(len(rows), arity + 1, rows).column_masks()
    return cols, label_col, len(rows)


def sample_bytes(arity: int, nsamp: int) -> int:
    """Peak bytes of packing a sample of nsamp examples: per example,
    its row as an int and as an (arity + 1)-character string while
    ``column_masks`` transposes them, as CPython 3 lays them out."""
    return nsamp * (arity * 4 // 3 + 176)


def exhaustive_parity_learner(
    oracle, arity: int, budget: LearnerBudget, rng: Random
) -> DecisionTree:
    """First exact parity fit on a fresh sample, else the better constant.

    A consistent learner: it returns a parity (or complemented parity)
    tree that fits every drawn example, when one exists over an index
    set S with ``|S| <= depth_budget`` (also capped so the output tree
    fits the size budget).  The first such fit in ascending size, then
    lexicographic order, plain before complemented, wins.  The sample
    is packed into per-coordinate bit columns; an exact fit is a sparse
    XOR of columns equal to the label column or to its complement,
    found by ``f2.sparse_xor_search`` (targets plain then complement).

    When nothing fits it returns the better constant, ``Leaf(1)`` only
    when ones outnumber zeros.  Over a span source, which is all the
    pipelines feed it, no candidate beats that: by the span dichotomy a
    parity tree, plain or complemented, is at lifted distance 0 or
    exactly 1/2, and so is each constant, so any of them that misses an
    example sits at 1/2.

    Raises:
        ValueError: when the depth budget exceeds the arity, or, after
            sampling, when the exact-fit search would pass
            ``f2.SEARCH_MAX_COST``.
    """
    if budget.depth_budget > arity:
        raise ValueError("depth budget exceeds the arity")
    cols, label_col, nsamp = _sample_columns(oracle, arity, budget, rng)
    max_size = min(budget.depth_budget, budget.size_budget.bit_length() - 1)
    targets = (label_col, label_col ^ ((1 << nsamp) - 1))
    exact = sparse_xor_search(cols, targets, max_size, max_cost=SEARCH_MAX_COST)
    if exact is None:
        return Leaf(int(2 * label_col.bit_count() > nsamp))
    support, target = exact
    tree = parity_to_tree(ParityIndexSet(tuple(j + 1 for j in range(arity) if support >> j & 1)))
    return complement_tree(tree) if target == 1 else tree


def _greedy_cost(arity: int, budget: LearnerBudget) -> int:
    """``greedy_learner``'s worst case in the steps of
    ``f2.SEARCH_MAX_COST``.  A node that tries a split reads every
    column, and at most 2 * min(size budget, samples) - 1 nodes try:
    each split, and each leaf whose try failed.  A column costs 6 steps
    plus one per 16 64-bit words: timed over 28 columns (Python 3.11),
    1.5-1.9 us at 1 word, 1.8-2.4 us at 32 (2000 samples), 2.7-2.9 us at
    64, 4.3-6.3 us at 256 and 13-18 us at 1024, against 180-300 ns a
    meet-in-the-middle step in the same runs."""
    nodes = 2 * min(budget.size_budget, budget.sample_budget) - 1
    words = -(-budget.sample_budget // 64)
    return nodes * arity * (6 + words // 16)


def greedy_learner(oracle, arity: int, budget: LearnerBudget, rng: Random) -> DecisionTree:
    """Top-down splits by empirical error reduction.

    At each node the split coordinate is the unused one whose majority
    labels on both sides remove the most empirical errors; ties go to
    the lowest index, and a node becomes a leaf when no split strictly
    helps, the sample is pure, or a budget limit is reached.  Majority
    ties label 0.  A node's examples are a bit mask over the packed
    sample, so each side's counts are popcounts against the columns.

    Raises:
        ValueError: before sampling, when its worst case
            (``_greedy_cost``) passes ``f2.SEARCH_MAX_COST``.
    """
    cost = _greedy_cost(arity, budget)
    if cost > SEARCH_MAX_COST:
        raise ValueError(
            f"greedy splitting of {budget.sample_budget} samples at arity {arity} takes "
            f"about {cost} steps, past SEARCH_MAX_COST = {SEARCH_MAX_COST}"
        )
    cols, label_col, nsamp = _sample_columns(oracle, arity, budget, rng)
    splits_left = budget.size_budget - 1

    def build(subset: int, used: int, depth: int) -> DecisionTree:
        nonlocal splits_left
        total = subset.bit_count()
        ones = (subset & label_col).bit_count()
        maj, err = (1, total - ones) if ones > total - ones else (0, ones)
        if err == 0 or depth == budget.depth_budget or splits_left == 0:
            return Leaf(maj)
        best_gain = 0
        best_coord = None
        for j, col in enumerate(cols):
            if used >> j & 1:
                continue
            hi = subset & col
            hi_n = hi.bit_count()
            hi_ones = (hi & label_col).bit_count()
            lo_n, lo_ones = total - hi_n, ones - hi_ones
            gain = err - min(lo_ones, lo_n - lo_ones) - min(hi_ones, hi_n - hi_ones)
            if gain > best_gain:
                best_gain, best_coord = gain, j
        if best_coord is None:
            return Leaf(maj)
        splits_left -= 1
        col = cols[best_coord]
        used |= 1 << best_coord
        low = build(subset & ~col, used, depth + 1)
        high = build(subset & col, used, depth + 1)
        return Node(best_coord + 1, low, high)

    return build((1 << nsamp) - 1, 0, 0)


def planted_learner(s: ParityIndexSet):
    """Learner that ignores its examples and returns the given parity.

    Test double for exercising the downstream pipeline with a known
    hypothesis.
    """
    def learner(oracle, arity: int, budget: LearnerBudget, rng: Random) -> DecisionTree:
        return parity_to_tree(s)
    return learner
