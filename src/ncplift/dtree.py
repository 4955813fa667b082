"""Binary decision trees over GF(2) inputs, with exact Fourier tools.

Trees are immutable recursive structures: a ``Leaf`` holds a 0/1 label,
a ``Node`` queries one coordinate (1-indexed) and branches on its value.
Nodes may be shared: the learner's parity tree of depth d is a DAG of
2*d + 1 nodes and 2**d leaves.  Every tree walk goes through ``walk``,
once per distinct state, so it costs the distinct nodes, not the depth
or the paths.  A path may query a coordinate again; every consumer
follows the branch that the first query fixed.

Size is the number of leaves, depth the number of edges on the longest
path.  Fourier coefficients use the +/-1 convention (bit b maps to
(-1)**b) over the uniform distribution on the full cube.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator

from .f2 import BitVector, FormatError, _is_decimal, bit_column

__all__ = [
    "ParityIndexSet",
    "Leaf",
    "Node",
    "DecisionTree",
    "walk",
    "eval_tree",
    "truth_table",
    "prune",
    "path_masks",
    "path_support_sets",
    "exact_uniform_fourier",
    "sample_size",
    "estimate_distance",
    "format_tree",
    "parse_tree",
    "int_text",
]


@dataclass(frozen=True, slots=True)
class ParityIndexSet:
    """Sorted distinct 1-indexed coordinates defining a parity function.

    Slotted: ``path_support_sets`` makes one per path subset, 2**depth
    of them for a parity tree.
    """

    indices: tuple[int, ...]
    mask: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        m = 0
        prev = 0
        for i in self.indices:
            if i <= prev:
                raise ValueError("indices must be distinct, ascending and >= 1")
            prev = i
            m |= 1 << (i - 1)
        object.__setattr__(self, "mask", m)

    @classmethod
    def from_iterable(cls, indices: Iterable[int]) -> ParityIndexSet:
        return cls(tuple(sorted(set(indices))))

    @classmethod
    def from_mask(cls, mask: int) -> ParityIndexSet:
        """The set whose mask is the given one (bit i-1 for coordinate
        i).  The mask is stored as given, not rebuilt from the indices.

        Raises:
            ValueError: when the mask is negative.
        """
        if mask < 0:
            raise ValueError("a parity mask must be >= 0")
        out = []
        rest = mask
        while rest:
            low = rest & -rest
            out.append(low.bit_length())
            rest ^= low
        return cls._unchecked(tuple(out), mask)

    @classmethod
    def _unchecked(cls, indices: tuple[int, ...], mask: int) -> ParityIndexSet:
        # For indices and a mask already known to agree: no validation,
        # and no second pass to rebuild the mask.
        s = object.__new__(cls)
        object.__setattr__(s, "indices", indices)
        object.__setattr__(s, "mask", mask)
        return s

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __contains__(self, i: int) -> bool:
        return 1 <= i and (self.mask >> (i - 1)) & 1 == 1


@dataclass(frozen=True)
class Leaf:
    label: int

    def __post_init__(self) -> None:
        if self.label not in (0, 1):
            raise ValueError("leaf label must be 0 or 1")

    @property
    def size(self) -> int:
        return 1

    @property
    def depth(self) -> int:
        return 0


@dataclass(frozen=True)
class Node:
    """A query of one coordinate.  Equality is structural and the hash
    is cached from the children's, so on a DAG that shares subtrees
    both cost the number of distinct nodes, not of paths."""

    coord: int
    low: "DecisionTree"
    high: "DecisionTree"
    size: int = field(init=False, compare=False, repr=False)
    depth: int = field(init=False, compare=False, repr=False)
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.coord < 1:
            raise ValueError("queried coordinate must be >= 1")
        object.__setattr__(self, "size", self.low.size + self.high.size)
        object.__setattr__(self, "depth", 1 + max(self.low.depth, self.high.depth))
        object.__setattr__(self, "_hash", hash((self.coord, self.low, self.high)))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        # The dataclass repr would write every path of a shared DAG.
        return f"Node(coord={self.coord}, depth={self.depth}, size={int_text(self.size)})"

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Node:
            return NotImplemented
        def step(pair):
            a, b = pair
            if a is b:
                return True
            if a.__class__ is not b.__class__ or hash(a) != hash(b):
                return False
            if a.__class__ is Leaf:
                return a.label == b.label
            return a.coord == b.coord and (yield a.low, b.low) and (yield a.high, b.high)
        # A pair of nodes that a DAG reaches along many paths is met once.
        return walk(step, (self, other), key=lambda pair: (id(pair[0]), id(pair[1])))


DecisionTree = Leaf | Node


def int_text(value: int) -> str:
    """``value`` in decimal, or as ``2**k`` when it is a power of two of
    at least 2**64, such as the size of a parity tree of depth k."""
    if value >= 1 << 64 and value & (value - 1) == 0:
        return f"2**{value.bit_length() - 1}"
    return str(value)


def walk(step, start, key=id, memo: dict | None = None):
    """The value of a recursion over states at ``start``, computed with
    an explicit stack, once per distinct ``key(state)``.

    ``step(state)`` is a generator written as the recursion: it yields
    each state whose value it needs, is sent that value, and returns its
    own.  ``memo``, when given, keeps the values by key across calls.
    """
    memo = {} if memo is None else memo
    top = key(start)
    stack = [(top, step(start))]
    value = None
    while stack:
        k, pending = stack[-1]
        try:
            state = pending.send(value)
        except StopIteration as done:
            stack.pop()
            value = memo[k] = done.value
            continue
        k = key(state)
        if k in memo:
            value = memo[k]
        else:
            stack.append((k, step(state)))
            value = None
    return memo[top]


def eval_tree(t: DecisionTree, y: BitVector) -> int:
    """Evaluate the tree on a point; queried coordinates must fit y."""
    while isinstance(t, Node):
        if t.coord > y.length:
            raise ValueError(f"tree queries coordinate {t.coord} beyond length {y.length}")
        t = t.high if (y.mask >> (t.coord - 1)) & 1 else t.low
    return t.label


def truth_table(t: DecisionTree, n: int) -> int:
    """Packed outputs over all 2**n inputs; bit x is the label at point x."""
    full = (1 << (1 << n)) - 1
    def step(node: DecisionTree):
        if isinstance(node, Leaf):
            return full if node.label else 0
        if node.coord > n:
            raise ValueError(f"tree queries coordinate {node.coord} beyond arity {n}")
        wave = bit_column(node.coord - 1, n)
        return ((yield node.low) & ~wave) | ((yield node.high) & wave)
    return walk(step, t) & full


def prune(t: DecisionTree, d: int) -> DecisionTree:
    """Cut the tree at depth d, replacing removed subtrees by Leaf(0).

    Returns the tree itself, node for node, when its depth is already
    within d.  Memoized on (node, depth left), so linear in a parity DAG.
    """
    if d < 0:
        raise ValueError("prune depth must be >= 0")
    if t.depth <= d:
        return t
    def step(state):
        node, left = state
        if node.depth <= left:
            return node
        if left == 0:
            return Leaf(0)
        return Node(node.coord, (yield node.low, left - 1), (yield node.high, left - 1))
    return walk(step, (t, d), key=lambda state: (id(state[0]), state[1]))


def path_masks(t: DecisionTree, most: float = math.inf) -> set[int] | None:
    """The distinct variable sets of the root-to-leaf paths, as masks
    (bit i-1 for coordinate i), found once per distinct node: a parity
    DAG of depth d costs O(d), not a walk over its 2**d leaves.  None
    once some node has more than ``most`` path sets: a DAG of two nodes
    per level on distinct coordinates has 2**d of them on 2*d nodes.
    """
    def step(node: DecisionTree):
        if isinstance(node, Leaf):
            return {0}
        low = yield node.low
        high = yield node.high
        if low is None or high is None:
            return None
        bit = 1 << (node.coord - 1)
        found = {pathmask | bit for pathmask in low | high}
        return found if len(found) <= most else None
    return walk(step, t)


def path_support_sets(pathmasks: set[int]) -> list[ParityIndexSet]:
    """Every subset of every given path set, once each, in ascending
    size and then lexicographic order; ``path_masks`` gives the distinct
    root-to-leaf path sets of a tree.

    The empty set comes first whenever a path set is given.  The
    subsets of each path set P are enumerated once, size by size with
    ``combinations``, their masks alongside, so the cost is sum over P
    of 2**|P|: 2**d for a parity tree of depth d, whose paths all share
    one set, and up to 4**d for a generic reduced tree.
    """
    paths = [ParityIndexSet.from_mask(pathmask).indices for pathmask in pathmasks]
    found: dict[tuple[int, ...], int] = {}
    for indices in paths:
        bits = [1 << (i - 1) for i in indices]
        for size in range(len(indices) + 1):
            found.update(zip(combinations(indices, size), map(sum, combinations(bits, size))))
    # A single path set gives its subsets in this order already.
    order = sorted(found, key=lambda s: (len(s), s)) if len(paths) > 1 else found
    return [ParityIndexSet._unchecked(s, found[s]) for s in order]


def exact_uniform_fourier(t: DecisionTree, n: int) -> dict[ParityIndexSet, Fraction]:
    """All nonzero Fourier coefficients of the tree over the uniform cube.

    Brute force: the full transform of the +/-1 truth table on 2**n
    points, exact in rationals.  Intended as an oracle at small arity.

    Args:
        t: decision tree querying coordinates within 1..n.
        n: ambient arity, at most 16.

    Returns:
        Mapping from index set S to the coefficient, omitting zeros.
    """
    if n > 16:
        raise ValueError("fourier brute force is limited to arity 16")
    tt = truth_table(t, n)
    total = 1 << n
    vec = [1 - 2 * ((tt >> x) & 1) for x in range(total)]
    h = 1
    while h < total:
        for base in range(0, total, h << 1):
            for j in range(base, base + h):
                a, b = vec[j], vec[j + h]
                vec[j], vec[j + h] = a + b, a - b
        h <<= 1
    return {
        ParityIndexSet.from_mask(s): Fraction(vec[s], total)
        for s in range(total)
        if vec[s]
    }


def sample_size(tol: float, confidence: float) -> int:
    """Draws needed so the empirical mean lands within tol of the truth
    with the stated confidence (two-sided Hoeffding)."""
    if not 0 < confidence < 1:
        raise ValueError("confidence must lie strictly between 0 and 1")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    return math.ceil(math.log(2.0 / (1.0 - confidence)) / (2.0 * tol * tol))


def estimate_distance(t: DecisionTree, oracle, tol: float, confidence: float, rng) -> Fraction:
    """Empirical disagreement with a sampling oracle.

    Draws ``sample_size(tol, confidence)`` labeled examples from
    ``oracle.sample(rng)`` and returns the mismatch fraction.
    """
    n = sample_size(tol, confidence)
    bad = 0
    for _ in range(n):
        point, label = oracle.sample(rng)
        if eval_tree(t, point) != label:
            bad += 1
    return Fraction(bad, n)


# ---------- serialization ----------


def format_tree(t: DecisionTree) -> str:
    """One line per distinct node, children before parents and the root
    last: ``l0`` or ``l1`` for a leaf, ``q<i> <low> <high>`` for a query
    of coordinate i, its children named by line number, counted from 1.
    A parity DAG of depth d takes 2*d + 1 lines."""
    lines: list[str] = []
    def step(node: DecisionTree):
        if isinstance(node, Leaf):
            lines.append(f"l{node.label}")
        else:
            lines.append(f"q{node.coord} {(yield node.low)} {(yield node.high)}")
        return len(lines)
    walk(step, t)
    return "\n".join(lines)


def parse_tree(text: str) -> DecisionTree:
    """Read ``format_tree``'s text back as written: a line that several
    lines name is one shared node, and repeated queries are kept.  Each
    line but the last, the root, must be a child of a later line."""
    nodes: list[DecisionTree] = []
    named: set[int] = set()
    for number, line in enumerate(text.splitlines(), 1):
        match line.split():
            case ["l0" | "l1" as leaf]:
                nodes.append(Leaf(int(leaf[1])))
            case [query, low, high] if query[0] == "q" and all(map(_is_decimal, (query[1:], low, high))):
                coord, low, high = int(query[1:]), int(low), int(high)
                if coord < 1 or not (0 < low < number and 0 < high < number):
                    raise FormatError(f"line {number}: needs a coordinate >= 1 and earlier children")
                named.update((low, high))
                nodes.append(Node(coord, nodes[low - 1], nodes[high - 1]))
            case _:
                raise FormatError(f"line {number}: malformed node {line!r}")
    if not nodes:
        raise FormatError("empty tree text")
    if len(named) < len(nodes) - 1:
        raise FormatError("a line before the last is no later line's child")
    return nodes[-1]
