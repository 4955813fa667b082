"""Binary decision trees over GF(2) inputs, with exact Fourier tools.

Trees are immutable recursive structures: a ``Leaf`` holds a 0/1 label,
a ``Node`` queries one coordinate (1-indexed) and branches on its value.
All trees produced by this package are reduced: no coordinate repeats
on a root-to-leaf path.  ``reduce_tree`` collapses repeated queries and
is applied when parsing untrusted input.

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

from .f2 import BitVector, FormatError, bit_column

__all__ = [
    "ParityIndexSet",
    "Leaf",
    "Node",
    "DecisionTree",
    "eval_tree",
    "truth_table",
    "reduce_tree",
    "complement_tree",
    "prune",
    "path_masks",
    "path_support_sets",
    "exact_uniform_fourier",
    "exact_distance",
    "sample_size",
    "estimate_distance",
    "format_tree",
    "parse_tree",
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

    def chi_mask(self, point_mask: int) -> int:
        """Parity of the selected coordinates of a packed point."""
        return (self.mask & point_mask).bit_count() & 1

    def chi(self, v: BitVector) -> int:
        if self.indices and self.indices[-1] > v.length:
            raise ValueError("parity index exceeds the vector length")
        return self.chi_mask(v.mask)

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

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if other.__class__ is not Node:
            return NotImplemented
        # Pairs already met are not walked again: on a DAG a pair of
        # nodes is reached along many paths.  A pair is recorded before
        # its children are compared, which is safe because any mismatch
        # below ends the whole comparison.
        met = set()
        pending = [(self, other)]
        while pending:
            a, b = pending.pop()
            if a is b or (id(a), id(b)) in met:
                continue
            if a.__class__ is not b.__class__ or hash(a) != hash(b):
                return False
            if a.__class__ is Leaf:
                if a.label != b.label:
                    return False
                continue
            if a.coord != b.coord:
                return False
            met.add((id(a), id(b)))
            pending.append((a.low, b.low))
            pending.append((a.high, b.high))
        return True


DecisionTree = Leaf | Node


def eval_tree(t: DecisionTree, y: BitVector) -> int:
    """Evaluate the tree on a point; queried coordinates must fit y."""
    while isinstance(t, Node):
        if t.coord > y.length:
            raise ValueError(f"tree queries coordinate {t.coord} beyond length {y.length}")
        t = t.high if (y.mask >> (t.coord - 1)) & 1 else t.low
    return t.label


def _eval_mask(t: DecisionTree, mask: int) -> int:
    while isinstance(t, Node):
        t = t.high if (mask >> (t.coord - 1)) & 1 else t.low
    return t.label


def truth_table(t: DecisionTree, n: int) -> int:
    """Packed outputs over all 2**n inputs; bit x is the label at point x."""
    full = (1 << (1 << n)) - 1
    def build(node: DecisionTree) -> int:
        if isinstance(node, Leaf):
            return full if node.label else 0
        if node.coord > n:
            raise ValueError(f"tree queries coordinate {node.coord} beyond arity {n}")
        wave = bit_column(node.coord - 1, n)
        return (build(node.low) & ~wave) | (build(node.high) & wave)
    return build(t) & full


def reduce_tree(t: DecisionTree) -> DecisionTree:
    """Collapse queries that repeat an ancestor's coordinate."""
    def walk(node: DecisionTree, fixed: dict[int, int]) -> DecisionTree:
        if isinstance(node, Leaf):
            return node
        if node.coord in fixed:
            return walk(node.high if fixed[node.coord] else node.low, fixed)
        low = walk(node.low, {**fixed, node.coord: 0})
        high = walk(node.high, {**fixed, node.coord: 1})
        return Node(node.coord, low, high)
    return walk(t, {})


def complement_tree(t: DecisionTree) -> DecisionTree:
    """Same queries, every leaf label flipped."""
    if isinstance(t, Leaf):
        return Leaf(1 - t.label)
    return Node(t.coord, complement_tree(t.low), complement_tree(t.high))


def prune(t: DecisionTree, d: int) -> DecisionTree:
    """Cut the tree at depth d, replacing removed subtrees by Leaf(0).

    Returns the tree itself, node for node, when its depth is already
    within d.
    """
    if d < 0:
        raise ValueError("prune depth must be >= 0")
    if t.depth <= d:
        return t
    if d == 0:
        return Leaf(0)
    assert isinstance(t, Node)
    return Node(t.coord, prune(t.low, d - 1), prune(t.high, d - 1))


def path_masks(t: DecisionTree) -> set[int]:
    """The distinct variable sets of the root-to-leaf paths, as masks
    (bit i-1 for coordinate i).  Memoized on node identity, so a node
    that several parents share is visited once: a parity DAG of depth d
    costs O(d), not a walk over its 2**d leaves."""
    memo: dict[int, set[int]] = {}

    def walk(node: DecisionTree) -> set[int]:
        if isinstance(node, Leaf):
            return {0}
        found = memo.get(id(node))
        if found is None:
            bit = 1 << (node.coord - 1)
            found = {pathmask | bit for pathmask in walk(node.low) | walk(node.high)}
            memo[id(node)] = found
        return found
    return walk(t)


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


def exact_distance(
    t: DecisionTree, weighted: Iterable[tuple[BitVector, Fraction, int]]
) -> Fraction:
    """Exact weighted disagreement with a labeled enumeration."""
    total = Fraction(0)
    for point, weight, label in weighted:
        if eval_tree(t, point) != label:
            total += weight
    return total


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
        if _eval_mask(t, point.mask) != label:
            bad += 1
    return Fraction(bad, n)


# ---------- serialization ----------


def format_tree(t: DecisionTree) -> str:
    """Prefix token stream: ``q<i>`` then both children, or ``l0``/``l1``."""
    out: list[str] = []
    def walk(node: DecisionTree) -> None:
        if isinstance(node, Leaf):
            out.append(f"l{node.label}")
        else:
            out.append(f"q{node.coord}")
            walk(node.low)
            walk(node.high)
    walk(t)
    return " ".join(out)


def parse_tree(text: str) -> DecisionTree:
    """Parse the prefix format; repeated queries on a path are collapsed."""
    tokens = text.split()
    pos = 0
    def take() -> DecisionTree:
        nonlocal pos
        if pos >= len(tokens):
            raise FormatError("unexpected end of tree text")
        tok = tokens[pos]
        pos += 1
        if tok == "l0":
            return Leaf(0)
        if tok == "l1":
            return Leaf(1)
        if tok.startswith("q"):
            try:
                coord = int(tok[1:])
            except ValueError as e:
                raise FormatError(f"malformed token {tok!r}") from e
            if coord < 1:
                raise FormatError(f"coordinate must be >= 1 in token {tok!r}")
            low = take()
            high = take()
            return Node(coord, low, high)
        raise FormatError(f"malformed token {tok!r}")
    tree = take()
    if pos != len(tokens):
        raise FormatError(f"trailing tokens after tree: {tokens[pos:]!r}")
    return reduce_tree(tree)
