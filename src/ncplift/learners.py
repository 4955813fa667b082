"""Proper decision-tree learners over labeled-example oracles.

A learner is any callable ``learner(oracle, arity, budget, rng)``
that draws at most ``budget.sample_budget`` labeled examples from an
oracle of length ``arity`` and returns a decision tree whose size and
depth respect the budget (a hard contract).  An oracle offers
``sample(rng)``, one (point, label) pair, and may offer
``sample_columns(rng, count)``, count examples already packed into bit
columns; the exhaustive learner draws through the latter when it is there.
No clock bounds a learner: a search whose cost estimate passes
``f2.SEARCH_MAX_COST`` raises ``ValueError`` before it starts.

The exhaustive learner is a consistent learner, which is all the
reduction needs (Blumer, Ehrenfeucht, Haussler and Warmuth, "Occam's
Razor", IPL 1987): it returns a parity tree fitting every drawn example
when one fits within the budget, and otherwise the better constant.
"""

from __future__ import annotations

from dataclasses import dataclass
# Not called here: the benchmark's tracer (bench/spans.py) counts
# ``learners.combinations`` calls, and a traced run fails when the name
# is missing.
from itertools import combinations  # noqa: F401
from random import Random

from .dtree import DecisionTree, Leaf, Node, ParityIndexSet
from .f2 import SEARCH_MAX_COST, BitMatrix, sparse_xor_search

__all__ = [
    "LearnerBudget",
    "parity_to_tree",
    "exhaustive_parity_learner",
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
    and size 2**len(s).  Its nodes are shared (``_parity_dags``), so it
    takes 2*len(s) + 2 objects.  The empty set gives Leaf(0).
    """
    return _parity_dags(s.indices)[0]


def _parity_dags(indices: tuple[int, ...]) -> tuple[DecisionTree, DecisionTree]:
    """The parity tree over ascending indices and its complement, as
    DAGs built bottom-up: below a query, the parity subtree and its
    complement are the same two nodes on every path, so each level
    makes two Nodes over (Leaf(0), Leaf(1))."""
    even: DecisionTree = Leaf(0)
    odd: DecisionTree = Leaf(1)
    for c in reversed(indices):
        even, odd = Node(c, even, odd), Node(c, odd, even)
    return even, odd


def _sample_columns(
    oracle, arity: int, budget: LearnerBudget, rng: Random
) -> tuple[list[int], int, int]:
    """A fresh sample packed into per-coordinate bit columns (bit r of
    a column is example r), with the label column and the sample count.

    An oracle with a ``sample_columns(rng, count)`` method draws the
    packed sample itself; any other is drawn an example at a time by
    ``pack_examples``.

    Raises:
        ValueError: when ``arity`` is not the oracle's length.
    """
    if arity != oracle.length:
        raise ValueError(f"arity {arity} does not match the oracle's length {oracle.length}")
    nsamp = budget.sample_budget
    if hasattr(oracle, "sample_columns"):
        cols, label_col = oracle.sample_columns(rng, nsamp)
    else:
        cols, label_col = pack_examples(oracle, nsamp, rng)
    return cols, label_col, nsamp


def pack_examples(oracle, count: int, rng: Random) -> tuple[list[int], int]:
    """``count`` draws of ``oracle.sample(rng)`` packed into the
    oracle's ``length`` bit columns and a label column.

    The labels ride in as column 0 of the transposed matrix.
    """
    draws = (oracle.sample(rng) for _ in range(count))
    rows = tuple(point.mask << 1 | label for point, label in draws)
    label_col, *cols = BitMatrix(count, oracle.length + 1, rows).column_masks()
    return cols, label_col


def sample_bytes(arity: int, nsamp: int, lifted: int) -> int:
    """Peak bytes of drawing a packed sample of nsamp examples at the
    given arity, then lifting it to ``lifted`` columns, as CPython 3
    lays them out.

    Packing keeps, per example, its row as an int and as an
    (arity + 1)-character string while ``column_masks`` transposes
    them.  Lifting starts once that is freed and keeps the base columns
    and the lifted ones, each an nsamp-bit int in 30-bit digits plus
    about 48 bytes of header, list slot and list growth.  The peak is
    the larger phase.
    """
    packing = nsamp * (arity * 4 // 3 + 176)
    lifting = (arity + lifted) * ((nsamp + 29) // 30 * 4 + 48)
    return max(packing, lifting)


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
    return _parity_dags(ParityIndexSet.from_mask(support).indices)[target]


def planted_learner(s: ParityIndexSet):
    """Learner that ignores its examples and returns the given parity.

    Test double for exercising the downstream pipeline with a known
    hypothesis.
    """
    def learner(oracle, arity: int, budget: LearnerBudget, rng: Random) -> DecisionTree:
        return parity_to_tree(s)
    return learner
