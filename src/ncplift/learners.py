"""Proper decision-tree learners over labeled-example oracles.

A learner is any callable ``learner(oracle, budget, rng)`` that draws
at most ``budget.sample_budget`` labeled examples from the oracle and
returns a decision tree over its ``length`` coordinates whose depth,
and so whose size of at most ``2**depth_budget``, respects the budget
(a hard contract).  An oracle has a ``length`` and two methods:
``sample_columns(rng, count)``, count examples packed into
per-coordinate bit columns (bit r of a column is example r), with the
label column; and ``peek_labels(rng, count)``, that label column alone,
read without advancing ``rng``.  ``gadget.GadgetOracle`` is that
oracle; a per-example source reaches a learner through it, at block
width 1 when unlifted.  No clock bounds a learner: a search whose cost
estimate passes ``f2.SEARCH_MAX_COST`` raises ``ValueError`` before it
starts, and before sampling when the sample's shape and labels show it.

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
from .f2 import _check_search_shape, sparse_xor_search

__all__ = [
    "LearnerBudget",
    "parity_to_tree",
    "exhaustive_parity_learner",
]


@dataclass(frozen=True)
class LearnerBudget:
    """Resource limits a learner must respect; the depth limit binds the
    returned tree, and so its size, at most ``2**depth_budget``."""

    depth_budget: int
    sample_budget: int

    def __post_init__(self) -> None:
        if self.depth_budget < 0 or self.sample_budget < 1:
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


def exhaustive_parity_learner(oracle, budget: LearnerBudget, rng: Random) -> DecisionTree:
    """First exact parity fit on a fresh sample, else the better constant.

    A consistent learner: it returns a parity tree that fits every
    drawn example, when one exists over an index set S with
    ``|S| <= depth_budget``.  The first such fit in ascending size, then
    lexicographic order, wins.  A constant label column is its own
    answer, ``Leaf(0)`` for all zeros and ``Leaf(1)`` for all ones, with
    no search.  Otherwise the sample comes packed into per-coordinate
    bit columns, and an exact fit is a sparse XOR of columns equal to
    the label column, found by ``f2.sparse_xor_search``.

    When nothing fits it returns the better constant, ``Leaf(1)`` only
    when ones outnumber zeros.  Over a span source, which is all the
    pipelines feed it, no candidate beats that: by the span dichotomy a
    parity tree is at lifted distance 0 or exactly 1/2, and so is each
    constant, so any of them that misses an example sits at 1/2.  A
    complemented parity is at 1 or 1/2, so it never tracks the labels
    and is not searched for.

    Raises:
        ValueError: when the depth budget exceeds the oracle's length,
            or when the exact-fit search would pass
            ``f2.SEARCH_MAX_COST``: before sampling when the shape of
            ``length`` columns of ``sample_budget`` bits shows it and
            the labels, read ahead with ``oracle.peek_labels``, are not
            all equal; otherwise after.  A constant label column needs
            no search, so the check refuses only what the search after
            sampling refuses.
    """
    if budget.depth_budget > oracle.length:
        raise ValueError("depth budget exceeds the oracle's length")
    nsamp = budget.sample_budget
    constant = (0, (1 << nsamp) - 1)
    try:
        _check_search_shape(oracle.length, nsamp, budget.depth_budget)
    except ValueError:
        if oracle.peek_labels(rng, nsamp) not in constant:
            raise
    cols, label_col = oracle.sample_columns(rng, nsamp)
    if label_col in constant:
        return Leaf(label_col & 1)
    support = sparse_xor_search(cols, label_col, budget.depth_budget)
    if support is None:
        return Leaf(int(2 * label_col.bit_count() > nsamp))
    return parity_to_tree(ParityIndexSet.from_mask(support))
