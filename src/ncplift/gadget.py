"""Blockwise-parity lifting of labeled example sources.

Each base coordinate i of an n-bit point is replaced by a block of ell
lifted coordinates, block i covering positions (i-1)*ell+1 .. i*ell.
The fold map sends a lifted string to the per-block parities; lifting a
base example draws the block contents uniformly among strings with the
required parity (ell-1 free bits per block, the last bit fixing the
parity), keeping the label, and a packed sample lifts a column at a
time (``lift_columns``).

Exact quantities below are computed in closed form per base point from
two elementary facts about a uniform parity-constrained block: any
proper subset of its coordinates is jointly uniform, and the signed
expectation of a full-block parity character is +1 or -1 according to
the required parity.  Over a span base, agreement and tree error need
no sum over points at all: the span dichotomy settles agreement from
the basis alone, and each tree path holds with probability 2**-rank of
an affine system in the subset vector.  A brute-force fiber enumerator
is kept alongside as an independent cross-check at tiny sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Iterator

from .dtree import DecisionTree, Leaf, Node, ParityIndexSet
from .f2 import BitMatrix, BitVector
from .instance import _randbelow
from .learners import pack_examples

__all__ = [
    "GadgetParams",
    "FinitePmf",
    "GadgetOracle",
    "Restriction",
    "blockwise_parity",
    "lift_sample",
    "lift_columns",
    "lift_parity",
    "unlift_parity",
    "is_block_complete",
    "block_unions",
    "exact_lifted_agreement",
    "span_lifted_agreement",
    "exact_restriction_probability",
    "exact_lifted_tree_error",
    "span_lifted_tree_error",
    "enumerate_lifted",
]

# Cap on the lifted arity of ``enumerate_lifted``, which yields
# 2**(n*(ell-1)) fibers per base point.
MAX_LIFTED_ARITY = 16


@dataclass(frozen=True)
class GadgetParams:
    """Block width and base arity; lifted arity is their product.

    ell >= 2 is the regime the amplification machinery needs; ell = 1
    (identity gadget) is allowed for plumbing tests.
    """

    ell: int
    base_n: int

    def __post_init__(self) -> None:
        if self.ell < 1:
            raise ValueError("block width must be >= 1")
        if self.base_n < 0:
            raise ValueError("base arity must be >= 0")

    @property
    def lifted_n(self) -> int:
        return self.ell * self.base_n

    def block_of(self, coord: int) -> int:
        """Block index (1-based) owning a lifted coordinate."""
        if not 1 <= coord <= self.lifted_n:
            raise ValueError(f"lifted coordinate {coord} out of range")
        return (coord - 1) // self.ell + 1


@dataclass(frozen=True)
class FinitePmf:
    """Explicit labeled distribution on distinct points.

    Probabilities are exact rationals summing to one.  Sampling inverts
    the cumulative distribution with a uniform draw over the common
    denominator, so it is exact and fully determined by the seed.
    """

    points: tuple[BitVector, ...]
    probs: tuple[Fraction, ...]
    labels: tuple[int, ...]
    length: int
    _denom: int = field(init=False, compare=False, repr=False)
    _cum: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if not (len(self.points) == len(self.probs) == len(self.labels)):
            raise ValueError("points, probs and labels must align")
        seen = set()
        for p in self.points:
            if p.length != self.length:
                raise ValueError("all points must share the stated length")
            if p.mask in seen:
                raise ValueError("duplicate support point")
            seen.add(p.mask)
        for pr in self.probs:
            if pr <= 0:
                raise ValueError("probabilities must be positive")
        if sum(self.probs, Fraction(0)) != 1:
            raise ValueError("probabilities must sum to 1")
        for b in self.labels:
            if b not in (0, 1):
                raise ValueError("labels must be 0 or 1")
        denom = math.lcm(*(pr.denominator for pr in self.probs)) if self.probs else 1
        cum = []
        acc = 0
        for pr in self.probs:
            acc += pr.numerator * (denom // pr.denominator)
            cum.append(acc)
        object.__setattr__(self, "_denom", denom)
        object.__setattr__(self, "_cum", tuple(cum))

    def sample(self, rng: Random) -> tuple[BitVector, int]:
        u = _randbelow(rng, self._denom)
        for i, edge in enumerate(self._cum):
            if u < edge:
                return self.points[i], self.labels[i]
        raise AssertionError("cumulative walk fell off the end")

    def enumerate_weighted(self) -> Iterator[tuple[BitVector, Fraction, int]]:
        yield from zip(self.points, self.probs, self.labels)


class GadgetOracle:
    """Lifted example source over a base source (span oracle or pmf).

    Every emitted pair (y, b) satisfies: b is the base label of the
    per-block parity fold of y.
    """

    __slots__ = ("base", "params")

    def __init__(self, base, params: GadgetParams) -> None:
        if base.length != params.base_n:
            raise ValueError("base arity does not match the gadget parameters")
        self.base = base
        self.params = params

    @property
    def length(self) -> int:
        return self.params.lifted_n

    def sample(self, rng: Random) -> tuple[BitVector, int]:
        """One lifted example: row 0 of ``sample_columns(rng, 1)``."""
        cols, label = self.sample_columns(rng, 1)
        return BitVector(self.length, sum(c << j for j, c in enumerate(cols))), label

    def sample_columns(self, rng: Random, count: int) -> tuple[list[int], int]:
        """count lifted examples packed into per-coordinate bit columns
        (bit r of a column is example r), with the label column.

        The base examples are drawn first and packed at base arity,
        then ``lift_columns`` draws every block's free columns.
        """
        base_cols, label_col = pack_examples(self.base, count, rng)
        return lift_columns(base_cols, count, self.params, rng), label_col

    def enumerate_weighted(self) -> Iterator[tuple[BitVector, Fraction, int]]:
        return enumerate_lifted(self.base, self.params)


@dataclass(frozen=True)
class Restriction:
    """Fixed values on a subset of lifted coordinates.

    ``coords`` is ascending and 1-indexed; ``values`` aligns with it,
    coordinate ``coords[j]`` being pinned to bit j of ``values``.
    """

    coords: tuple[int, ...]
    values: BitVector

    def __post_init__(self) -> None:
        prev = 0
        for c in self.coords:
            if c <= prev:
                raise ValueError("coordinates must be distinct, ascending and >= 1")
            prev = c
        if self.values.length != len(self.coords):
            raise ValueError("one pinned value per coordinate")

    @classmethod
    def of(cls, assignment: dict[int, int]) -> Restriction:
        coords = tuple(sorted(assignment))
        return cls(coords, BitVector.from_bits(assignment[c] for c in coords))


def blockwise_parity(y: BitVector, params: GadgetParams) -> BitVector:
    """Fold a lifted string to its per-block parities."""
    if y.length != params.lifted_n:
        raise ValueError(f"expected length {params.lifted_n}, got {y.length}")
    ell = params.ell
    ones = (1 << ell) - 1
    out = 0
    ym = y.mask
    for i in range(params.base_n):
        if ((ym >> (i * ell)) & ones).bit_count() & 1:
            out |= 1 << i
    return BitVector(params.base_n, out)


def lift_sample(
    pair: tuple[BitVector, int], params: GadgetParams, rng: Random
) -> tuple[BitVector, int]:
    """Uniform preimage of a base point under the fold, same label.

    Per block, the first ell-1 coordinates are uniform and the last one
    fixes the block parity.  All free bits come from one getrandbits
    draw.  The oracle lifts a packed sample with ``lift_columns``
    instead; the tests check both against ``enumerate_lifted``.
    """
    x, label = pair
    if x.length != params.base_n:
        raise ValueError(f"expected base length {params.base_n}, got {x.length}")
    ell = params.ell
    n = params.base_n
    free_all = rng.getrandbits(n * (ell - 1)) if ell > 1 and n else 0
    free_ones = (1 << (ell - 1)) - 1
    ym = 0
    xm = x.mask
    for i in range(n):
        free = (free_all >> (i * (ell - 1))) & free_ones
        last = (free.bit_count() & 1) ^ ((xm >> i) & 1)
        ym |= (free | (last << (ell - 1))) << (i * ell)
    return BitVector(params.lifted_n, ym), label


def lift_columns(
    base_cols: list[int], count: int, params: GadgetParams, rng: Random
) -> list[int]:
    """Uniform preimages of a packed base sample under the fold.

    ``base_cols`` holds base_n columns of count bits, bit r of column i
    being base coordinate i+1 of example r.  Block i of the result is
    ell-1 uniform columns, one ``getrandbits(count)`` draw each, then
    base column i XOR those: lifted column i*ell + r is lifted
    coordinate i*ell + r + 1, as ``lift_sample`` lays out one example.
    """
    if len(base_cols) != params.base_n:
        raise ValueError(f"expected {params.base_n} base columns, got {len(base_cols)}")
    out = []
    for col in base_cols:
        for _ in range(params.ell - 1):
            free = rng.getrandbits(count)
            out.append(free)
            col ^= free
        out.append(col)
    return out


def lift_parity(s_star: ParityIndexSet, params: GadgetParams) -> ParityIndexSet:
    """Base index set to the union of its full blocks."""
    out = []
    for i in s_star:
        if i > params.base_n:
            raise ValueError(f"base index {i} out of range 1..{params.base_n}")
        start = (i - 1) * params.ell + 1
        out.extend(range(start, start + params.ell))
    return ParityIndexSet(tuple(out))


def unlift_parity(s: ParityIndexSet, params: GadgetParams) -> ParityIndexSet:
    """Blocks that a lifted index set touches."""
    return ParityIndexSet.from_iterable(params.block_of(c) for c in s)


def is_block_complete(s: ParityIndexSet, params: GadgetParams) -> bool:
    """True when every touched block is fully contained in s.

    Raises:
        ValueError: when s holds an index past the lifted arity.
    """
    return _block_fold(s.mask, params) is not None


def _block_fold(mask: int, params: GadgetParams) -> int | None:
    """Base mask (0-based bits) of the blocks a lifted index mask covers,
    or None when it covers some block only partly.

    One mask test per touched block, lowest block first, so a partly
    covered block ends the walk at once.
    """
    if mask >> params.lifted_n:
        raise ValueError("parity index exceeds the lifted arity")
    ell = params.ell
    ones = (1 << ell) - 1
    fmask = 0
    while mask:
        b = ((mask & -mask).bit_length() - 1) // ell
        block = ones << (b * ell)
        if mask & block != block:
            return None
        mask ^= block
        fmask |= 1 << b
    return fmask


def block_unions(mask: int, params: GadgetParams) -> list[int]:
    """Every union of the blocks that lie wholly inside a lifted index
    mask, as lifted masks, the empty union first: the block-complete
    subsets of the mask, 2**(whole blocks) of them.

    Raises:
        ValueError: when the mask holds an index past the lifted arity.
    """
    if mask >> params.lifted_n:
        raise ValueError("parity index exceeds the lifted arity")
    ell = params.ell
    ones = (1 << ell) - 1
    unions = [0]
    while mask:
        b = ((mask & -mask).bit_length() - 1) // ell
        block = ones << (b * ell)
        if mask & block == block:
            unions += [union | block for union in unions]
        mask &= ~block
    return unions


def exact_lifted_agreement(base, s: ParityIndexSet, params: GadgetParams) -> Fraction:
    """Exact probability that the parity matches the lifted label.

    Closed form per base point: the signed agreement is the base
    expectation of (-1)**label times the product of per-block character
    expectations, which is 0 for a partially covered block and
    (-1)**x_i for a fully covered block i.  No fibers are enumerated,
    but every base point is; over a span this is the enumerating oracle
    for ``span_lifted_agreement``.
    """
    fmask = _block_fold(s.mask, params)
    if fmask is None:
        # Every term carries a zero factor from the partial block.
        return Fraction(1, 2)
    corr = Fraction(0)
    for point, prob, label in base.enumerate_weighted():
        sign = (label ^ ((point.mask & fmask).bit_count() & 1)) & 1
        corr += -prob if sign else prob
    return (1 + corr) / 2


# The two values of the span dichotomy, built once rather than per call:
# extraction scores every candidate with one of them.
_HALF = Fraction(1, 2)
_ONE = Fraction(1)


def span_lifted_agreement(span, s: ParityIndexSet, params: GadgetParams) -> Fraction:
    """Exact agreement of a parity with the lifted source over a span.

    The span dichotomy in closed form.  A partially covered block gives
    1/2, as in ``exact_lifted_agreement``.  Otherwise the agreement is
    that of the folded base parity F over the span, whose labels extend
    the basis labels linearly: F matches every span label when it
    matches every basis row (agreement 1), and exactly half of them
    otherwise (agreement 1/2).  One pass over the basis, no dimension
    cap.
    """
    fmask = _block_fold(s.mask, params)
    if fmask is None:
        return _HALF
    for row, label in zip(span.points, span.labels):
        if (row & fmask).bit_count() & 1 != label:
            return _HALF
    return _ONE


def _restriction_blocks(rho: Restriction, params: GadgetParams) -> tuple[int, int, int]:
    """Decompose a restriction into (scale exponent, full block mask,
    required base bits on full blocks).

    Given base bits that meet the requirement on the full blocks, the
    lifted draw matches the restriction with probability 2**-exponent:
    each partially restricted block contributes its restricted bit
    count, and each full block its ell-1 free bits.
    """
    ell = params.ell
    counts: dict[int, int] = {}
    parities: dict[int, int] = {}
    for c, v in zip(rho.coords, rho.values):
        if c > params.lifted_n:
            raise ValueError(f"lifted coordinate {c} out of range")
        b = (c - 1) // ell
        counts[b] = counts.get(b, 0) + 1
        parities[b] = parities.get(b, 0) ^ v
    exponent = 0
    fmask = 0
    req = 0
    for b, cnt in counts.items():
        if cnt == ell:
            fmask |= 1 << b
            exponent += ell - 1
            if parities[b]:
                req |= 1 << b
        else:
            exponent += cnt
    return exponent, fmask, req


def exact_restriction_probability(
    base, rho: Restriction, params: GadgetParams
) -> Fraction:
    """Exact probability that a lifted draw matches the restriction.

    Per base point the blocks are independent: a partially restricted
    block matches with probability 2**-(restricted bits); a fully
    restricted block matches with probability 2**-(ell-1) when its
    required parity equals the base bit, otherwise never.
    """
    exponent, fmask, req = _restriction_blocks(rho, params)
    hit = Fraction(0)
    for point, prob, _label in base.enumerate_weighted():
        if (point.mask & fmask) == req:
            hit += prob
    return hit / (1 << exponent)


def _paths(t: DecisionTree) -> Iterator[tuple[dict[int, int], int]]:
    """(assignment along the path, leaf label) for every reachable leaf.

    A coordinate queried again below its first query follows the branch
    its first answer fixed; the other branch is unreachable.
    """
    def walk(node: DecisionTree, fixed: dict[int, int]):
        if isinstance(node, Leaf):
            yield dict(fixed), node.label
            return
        assert isinstance(node, Node)
        seen = fixed.get(node.coord)
        if seen is not None:
            yield from walk(node.high if seen else node.low, fixed)
            return
        fixed[node.coord] = 0
        yield from walk(node.low, fixed)
        fixed[node.coord] = 1
        yield from walk(node.high, fixed)
        del fixed[node.coord]
    yield from walk(t, {})


def exact_lifted_tree_error(tree: DecisionTree, base, params: GadgetParams) -> Fraction:
    """Exact disagreement of a tree with the lifted source.

    Sums over root-to-leaf paths: each path is a restriction, and
    conditioned on the base point the label of any consistent lifted
    string is the base label, so the path contributes its restriction
    probability over the base points whose label differs from the leaf.
    Every base point is enumerated; over a span this is the oracle for
    ``span_lifted_tree_error``.
    """
    support = list(base.enumerate_weighted())
    err = Fraction(0)
    for fixed, leaf_label in _paths(tree):
        exponent, fmask, req = _restriction_blocks(Restriction.of(fixed), params)
        hit = Fraction(0)
        for point, prob, label in support:
            if label != leaf_label and (point.mask & fmask) == req:
                hit += prob
        err += hit / (1 << exponent)
    return err


def span_lifted_tree_error(tree: DecisionTree, span, params: GadgetParams) -> Fraction:
    """Exact disagreement of a tree with the lifted source over a span.

    The closed form of ``exact_lifted_tree_error`` for a span base.  The
    span point selected by a uniform subset vector u of the basis has
    base bit i equal to <column i of the basis, u> and label
    <basis labels, u>.  A path therefore asks for affine equations in u:
    one per full block (its required base bit) and "label != leaf".
    When they are consistent they hold with probability 2**-rank, so
    the path contributes 2**-(scale exponent + rank); otherwise it
    contributes 0.

    One depth-first walk gives every path's term.  Down each path it
    carries the fixed coordinates and their values, the scale exponent
    (one per fixed coordinate, less one per full block), and an echelon
    basis of the full-block equations, right-hand side as bit m and
    pivots lowest bits.  A query that fills a block reduces the block's
    equation once for both branches, whose right-hand sides differ.  A
    row that reduces to the bare right-hand-side bit is inconsistent, so
    every path below contributes 0 and that subtree is skipped.  The
    label form rides along reduced against the basis, which settles
    each leaf's label row in one step.  Since exponent + rank is at most
    depth + 1, the terms are summed as integers over 2**(depth + 1),
    and one Fraction is made at the end.

    Raises:
        ValueError: when the span's length is not the base arity, or a
            node queries a coordinate past the lifted arity.
    """
    if span.length != params.base_n:
        raise ValueError("base arity does not match the gadget parameters")
    _check_queries(tree, params.lifted_n)
    m = span.dimension
    rhs = 1 << m
    forms = BitMatrix(m, span.length, span.points).column_masks()
    label_form = sum(label << j for j, label in enumerate(span.labels))
    ell = params.ell
    ones = (1 << ell) - 1
    top = tree.depth + 1
    total = 0
    # A subtree, with the state of the path down to it: the fixed
    # coordinates and their values as lifted masks, the scale exponent,
    # the basis, and the label form reduced against the basis.
    stack = [(tree, 0, 0, 0, (), label_form)]
    while stack:
        node, fixed, values, exponent, basis, label_row = stack.pop()
        if isinstance(node, Leaf):
            row = label_row ^ (node.label ^ 1) << m
            if row != rhs:
                total += 1 << (top - exponent - len(basis) - (row != 0))
            continue
        bit = 1 << (node.coord - 1)
        if fixed & bit:
            # A repeated query follows the branch its first answer fixed.
            child = node.high if values & bit else node.low
            stack.append((child, fixed, values, exponent, basis, label_row))
            continue
        fixed |= bit
        b = (node.coord - 1) // ell
        block = ones << (b * ell)
        if fixed & block != block:
            stack.append((node.low, fixed, values, exponent + 1, basis, label_row))
            stack.append((node.high, fixed, values | bit, exponent + 1, basis, label_row))
            continue
        row = forms[b] | ((values & block).bit_count() & 1) << m
        for r in basis:
            if row & r & -r:
                row ^= r
        for child, value, eq in ((node.low, 0, row), (node.high, bit, row ^ rhs)):
            if eq == rhs:
                continue
            if eq == 0:
                stack.append((child, fixed, values | value, exponent, basis, label_row))
            else:
                reduced = label_row ^ eq if label_row & eq & -eq else label_row
                stack.append((child, fixed, values | value, exponent, basis + (eq,), reduced))
    return Fraction(total, 1 << top)


def _check_queries(tree: DecisionTree, lifted_n: int) -> None:
    """Raise when a node queries past the lifted arity; a node that
    several parents share is checked once."""
    seen: set[int] = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, Node) and id(node) not in seen:
            if node.coord > lifted_n:
                raise ValueError(f"lifted coordinate {node.coord} out of range")
            seen.add(id(node))
            stack += (node.low, node.high)


def enumerate_lifted(base, params: GadgetParams) -> Iterator[tuple[BitVector, Fraction, int]]:
    """Brute-force fiber enumeration of the lifted distribution.

    Every lifted string appears with its exact probability: the base
    point probability split uniformly over its 2**(n*(ell-1)) preimages.
    Cross-check oracle; exponential, capped by ``MAX_LIFTED_ARITY``.
    """
    if params.lifted_n > MAX_LIFTED_ARITY:
        raise ValueError(f"fiber enumeration capped at lifted arity {MAX_LIFTED_ARITY}")
    ell = params.ell
    n = params.base_n
    freebits = n * (ell - 1)
    free_ones = (1 << (ell - 1)) - 1
    for point, prob, label in base.enumerate_weighted():
        w = prob / (1 << freebits)
        xm = point.mask
        for free_all in range(1 << freebits):
            ym = 0
            for i in range(n):
                free = (free_all >> (i * (ell - 1))) & free_ones
                last = (free.bit_count() & 1) ^ ((xm >> i) & 1)
                ym |= (free | (last << (ell - 1))) << (i * ell)
            yield BitVector(params.lifted_n, ym), w, label
