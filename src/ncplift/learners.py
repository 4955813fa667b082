"""Proper decision-tree learners over labeled-example oracles.

A learner is any callable ``learner(oracle, arity, budget, rng)``
that draws at most ``budget.sample_budget`` (point, label) pairs from
``oracle.sample(rng)`` and returns a decision tree whose size and depth
respect the budget (a hard contract).  No clock bounds it: a search
whose cost estimate passes ``f2.SEARCH_MAX_COST`` raises ``ValueError``
before it starts.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, islice
from math import comb
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

# Bound, in bytes, on the pair table of the exhaustive learner's error
# scan; past it the scan's rows extend a prefix by one column, not a pair.
PAIR_TABLE_MAX_BYTES = 1 << 24

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


def _check_cost(what: str, cost: int) -> None:
    if cost > SEARCH_MAX_COST:
        raise ValueError(
            f"{what} takes about {cost} steps, past SEARCH_MAX_COST = {SEARCH_MAX_COST}"
        )


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
    """Best parity (or complemented parity) on a fresh sample.

    Considers every index set S with ``|S| <= depth_budget`` (also
    capped so the output tree fits the size budget), in ascending size
    and then lexicographic order, the plain parity before the
    complemented one; the first candidate achieving the minimum
    empirical error wins, so ties break toward smaller, earlier, plain
    candidates.  With depth budget 0 this returns the better constant.

    The sample is packed into per-coordinate bit columns.  An exact fit
    is a sparse XOR of columns equal to the label column or to its
    complement, and zero error is the minimum, so the first exact fit
    in that order is found by meeting in the middle
    (``f2.sparse_xor_search``, targets plain then complement).  Only
    when no candidate fits exactly does ``_min_error_scan`` grade every
    candidate, a row of them at a time.

    Raises:
        ValueError: when the depth budget exceeds the arity, or, after
            sampling, when the exact-fit search or the error scan would
            pass ``f2.SEARCH_MAX_COST``.
    """
    if budget.depth_budget > arity:
        raise ValueError("depth budget exceeds the arity")
    cols, label_col, nsamp = _sample_columns(oracle, arity, budget, rng)
    max_size = min(budget.depth_budget, budget.size_budget.bit_length() - 1)
    targets = (label_col, label_col ^ ((1 << nsamp) - 1))
    exact = sparse_xor_search(cols, targets, max_size, max_cost=SEARCH_MAX_COST)
    if exact is not None:
        support, target = exact
        combo = tuple(j for j in range(arity) if support >> j & 1)
        return _build_parity((combo, target == 1))
    _check_cost(
        f"the error scan over C({arity}, <={max_size}) candidates of {nsamp} samples",
        _scan_cost(arity, nsamp, max_size),
    )
    # The size-0 tier: the better constant, plain on a tie.
    ones = label_col.bit_count()
    best = ((), nsamp - ones < ones)
    return _build_parity(
        _min_error_scan(cols, label_col, nsamp, max_size, min(ones, nsamp - ones), best)
    )


def _words(nsamp: int) -> int:
    """64-bit words in a column of nsamp samples."""
    return -(-nsamp // 64)


def _scan_cost(arity: int, nsamp: int, max_size: int) -> int:
    """``_min_error_scan``'s work in the steps of ``f2.SEARCH_MAX_COST``:
    every candidate of at most max_size columns, each one step plus one
    per 16 words of a column.  Timed on random columns at arity 28-42
    (Python 3.11), a candidate took 220-260 ns at 1 word, 510-575 ns at
    32 (2000 samples), 1.4-1.6 us at 125 and 18-21 us at 2000, against
    180-320 ns a meet-in-the-middle step on 2000-sample columns."""
    candidates = sum(comb(arity, s) for s in range(max_size + 1))
    return candidates * (1 + _words(nsamp) // 16)


def _pair_table_bytes(arity: int, nsamp: int) -> int:
    """Pair XORs (nsamp-bit ints), their index pairs, and one row of
    errors, as CPython 3 lays them out."""
    return arity * (arity - 1) // 2 * (nsamp * 2 // 15 + 136)


def _min_error_scan(
    cols: list[int],
    label_col: int,
    nsamp: int,
    max_size: int,
    best_err: int,
    best: tuple[tuple[int, ...], bool],
) -> tuple[tuple[int, ...], bool]:
    """First candidate of minimum error in (size, lex, plain before
    complement) order, sizes 1..max_size, seeded with the size-0 tier.

    A row is every candidate of one size that shares a prefix: the
    prefix extended by each unit after its last index, where a unit is
    a pair of columns (one column at size 1, or when the pair table
    would pass ``PAIR_TABLE_MAX_BYTES``).  Units are listed in
    lexicographic order, so a row is a suffix of that list, and rows in
    prefix order visit candidates in lexicographic order.  The label
    column is folded into the prefix XOR once; a row's errors are
    popcounts taken by ``map``, and C-level ``min``/``max`` tell whether
    the row beats the best so far.  Only then is the row searched, for
    the first occurrence of its minimum (plain before complement),
    which is where a one-candidate-at-a-time scan would settle.
    """
    arity = len(cols)
    single = ([(j,) for j in range(arity)], cols, list(range(arity + 1)))
    pair = single
    if max_size >= 2 and _pair_table_bytes(arity, nsamp) <= PAIR_TABLE_MAX_BYTES:
        units = list(combinations(range(arity), 2))
        first = [0]
        for a in range(arity):
            first.append(first[a] + arity - 1 - a)
        pair = (units, [cols[a] ^ cols[b] for a, b in units], first)
    for size in range(1, max_size + 1):
        units, unit_xors, first = pair if size >= 2 else single
        width = len(units[0])
        for prefix in combinations(range(arity - width), size - width):
            acc = label_col
            for j in prefix:
                acc ^= cols[j]
            start = first[prefix[-1] + 1] if prefix else 0
            errs = list(map(int.bit_count, map(acc.__xor__, islice(unit_xors, start, None))))
            lo = min(errs)
            hi = max(errs)
            if lo < best_err or nsamp - hi < best_err:
                at_lo, at_hi = errs.index(lo), errs.index(hi)
                if lo < nsamp - hi or (lo == nsamp - hi and at_lo <= at_hi):
                    best_err, best = lo, (prefix + units[start + at_lo], False)
                else:
                    best_err, best = nsamp - hi, (prefix + units[start + at_hi], True)
    return best


def _build_parity(best: tuple[tuple[int, ...], bool]) -> DecisionTree:
    combo, flipped = best
    tree = parity_to_tree(ParityIndexSet(tuple(j + 1 for j in combo)))
    return complement_tree(tree) if flipped else tree


def greedy_learner(oracle, arity: int, budget: LearnerBudget, rng: Random) -> DecisionTree:
    """Top-down splits by empirical error reduction.

    At each node the split coordinate is the unused one whose majority
    labels on both sides remove the most empirical errors; ties go to
    the lowest index, and a node becomes a leaf when no split strictly
    helps, the sample is pure, or a budget limit is reached.  Majority
    ties label 0.  A node's examples are a bit mask over the packed
    sample, so each side's counts are popcounts against the columns.

    Raises:
        ValueError: before sampling, when the worst case, a split per
            size budget or sample reading every column, passes
            ``f2.SEARCH_MAX_COST``.
    """
    _check_cost(
        f"greedy splitting of {budget.sample_budget} samples at arity {arity}",
        min(budget.size_budget, budget.sample_budget) * arity * _words(budget.sample_budget),
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
