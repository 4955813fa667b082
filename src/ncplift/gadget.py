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
no sum over points at all.  By the span dichotomy the unions of whole
blocks at agreement 1 are the lifts of the solutions of H s = t, and
``solution_unions`` finds those inside a tree's path sets with one
``f2.eliminate`` per set of whole blocks; the tree error is a Fourier
sum of the tree over them.  A brute-force fiber enumerator is kept
alongside as an independent cross-check at tiny sizes.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from random import Random
from typing import Iterator

from .dtree import DecisionTree, Leaf, Node, ParityIndexSet, path_masks, walk
from .f2 import BitMatrix, BitVector, eliminate

__all__ = [
    "GadgetParams",
    "FinitePmf",
    "GadgetOracle",
    "Restriction",
    "lift_sample",
    "lift_columns",
    "lift_parity",
    "unlift_parity",
    "is_block_complete",
    "exact_lifted_agreement",
    "solution_unions",
    "exact_restriction_probability",
    "exact_lifted_tree_error",
    "span_lifted_tree_error",
    "enumerate_lifted",
]

# Cap on the lifted arity of ``enumerate_lifted``, which yields
# 2**(n*(ell-1)) fibers per base point.
MAX_LIFTED_ARITY = 16

# Bound, in bytes, on ``sample_bytes``.  Neither the oracle nor the
# learner checks it; whoever sets the sample budget does, before any
# sampling.
SAMPLE_MAX_BYTES = 1 << 27

# Bound on the unions ``solution_unions`` builds for extraction and
# decide's tree error, 2**(|W| - rank) per solvable set W of whole
# blocks, counted before any is built.
UNIONS_MAX = 1 << 16


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
    """Explicit labeled distribution on distinct points, for the exact
    closed forms and their enumerating oracles.

    Probabilities are exact rationals summing to one.
    """

    points: tuple[BitVector, ...]
    probs: tuple[Fraction, ...]
    labels: tuple[int, ...]
    length: int

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

    def enumerate_weighted(self) -> Iterator[tuple[BitVector, Fraction, int]]:
        yield from zip(self.points, self.probs, self.labels)


class GadgetOracle:
    """Lifted example source over a base source that draws one example
    at a time with ``sample(rng)``, a span oracle in the pipelines.

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

    def sample_columns(self, rng: Random, count: int) -> tuple[list[int], int]:
        """count lifted examples packed into per-coordinate bit columns
        (bit r of a column is example r), with the label column.

        The base examples are drawn first, one ``base.sample(rng)`` each,
        and packed at base arity, the labels riding in as column 0 of
        the transposed matrix; then ``lift_columns`` draws every block's
        free columns.  ``sample_bytes`` bounds the peak.
        """
        draws = map(self.base.sample, repeat(rng, count))
        rows = tuple(point.mask << 1 | label for point, label in draws)
        label_col, *base_cols = BitMatrix(count, self.base.length + 1, rows).column_masks()
        # Freed before lifting starts, as ``sample_bytes`` counts it.
        del rows
        return lift_columns(base_cols, count, self.params, rng), label_col

    def peek_labels(self, rng: Random, count: int) -> int:
        """The label column that ``sample_columns(rng, count)`` would
        return, drawn from a copy of ``rng``, which is left as it was.
        Lifting keeps each base label, so nothing is lifted: a base with
        a ``label_column`` (a span oracle) draws the labels alone, and
        any other base its whole examples."""
        ahead = copy(rng)
        label_column = getattr(self.base, "label_column", None)
        if label_column is not None:
            return label_column(ahead, count)
        return sum(self.base.sample(ahead)[1] << r for r in range(count))


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
    free_all = rng.getrandbits(n * (ell - 1))
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


def sample_bytes(arity: int, nsamp: int, lifted: int) -> int:
    """Peak bytes of ``GadgetOracle.sample_columns`` drawing nsamp
    examples at base arity ``arity`` and lifting them to ``lifted``
    columns, as CPython 3 lays them out.

    Packing peaks while ``column_masks`` joins the rows' bytes.  Per
    example it then holds the row as an int (24 bytes of header and 4
    per 30 bits) in a tuple slot (8), the row as a bytes object (33
    bytes of header and 1 per 8 bits), that object's slot in the list
    ``bytes.join`` builds (about 9 with growth) and the 80-byte buffer
    view ``bytes.join`` takes of it, and the row's share of the joined
    bytes (1 per 8 bits): 154 bytes of headers and 2/15 + 1/4 of a byte
    per coordinate, rounded up to 168 and 2/5 for each row's partial
    digit and byte.  Lifting starts once that is freed and keeps the
    base columns and the lifted ones, each an nsamp-bit int in 30-bit
    digits plus about 48 bytes of header, list slot and list growth.
    The peak is the larger phase.
    """
    packing = nsamp * (arity * 2 // 5 + 168)
    lifting = (arity + lifted) * ((nsamp + 29) // 30 * 4 + 48)
    return max(packing, lifting)


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


def exact_lifted_agreement(base, s: ParityIndexSet, params: GadgetParams) -> Fraction:
    """Exact probability that the parity matches the lifted label.

    Closed form per base point: the signed agreement is the base
    expectation of (-1)**label times the product of per-block character
    expectations, which is 0 for a partially covered block and
    (-1)**x_i for a fully covered block i.  No fibers are enumerated,
    but every base point is; over a span this is the enumerating oracle
    for ``solution_unions``.
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


def solution_unions(tree: DecisionTree, span, params: GadgetParams) -> set[int]:
    """The unions of whole blocks inside the tree's path sets whose
    agreement with the lifted span source is 1, as lifted masks: by the
    span dichotomy, the lifts of the solutions s of H s = t supported on
    whole blocks of a path set.

    The path sets come from ``path_masks``, which stops once a node has
    more than ``UNIONS_MAX`` of them.  Each distinct set W of whole
    blocks is one solve.  Bit i of the column of block b is bit b of
    basis row i, and bit i of the target is the label of row i.
    ``f2.eliminate`` takes the |W| columns and reduces the target: a
    nonzero residue leaves no solution in W, and otherwise the solutions
    are the particular combination XOR the span of the kernel,
    2**(|W| - rank) of them.  Their lifts are counted over every W, then
    built by doubling.

    Raises:
        ValueError: when the tree queries a coordinate past the lifted
            arity, or, before any union is built, when the path sets or
            the unions pass ``UNIONS_MAX``.
    """
    pathmasks = path_masks(tree, UNIONS_MAX)
    if pathmasks is None:
        raise ValueError(f"the tree has more than {UNIONS_MAX} path sets, past UNIONS_MAX")
    ell = params.ell
    ones = (1 << ell) - 1
    wholes = set()
    for pathmask in pathmasks:
        if pathmask >> params.lifted_n:
            raise ValueError("parity index exceeds the lifted arity")
        wholes.add(tuple(b for b in range(params.base_n) if pathmask >> (b * ell) & ones == ones))
    target = sum(label << i for i, label in enumerate(span.labels))
    cosets = []
    for whole in wholes:
        elim = eliminate(
            sum((row >> b & 1) << i for i, row in enumerate(span.points)) for b in whole
        )
        residue, combo = elim.reduce(target)
        if not residue:
            cosets.append([
                sum(ones << (b * ell) for j, b in enumerate(whole) if v >> j & 1)
                for v in (combo, *elim.kernel)
            ])
    count = sum(1 << (len(coset) - 1) for coset in cosets)
    if count > UNIONS_MAX:
        raise ValueError(f"would build {count} solution unions, past UNIONS_MAX = {UNIONS_MAX}")
    unions: set[int] = set()
    for particular, *steps in cosets:
        found = [particular]
        for step in steps:
            found += [union ^ step for union in found]
        unions.update(found)
    return unions


def span_lifted_tree_error(tree: DecisionTree, span, params: GadgetParams) -> Fraction:
    """Exact disagreement of a tree with the lifted source over a span.

    The closed form of ``exact_lifted_tree_error`` for a span base, by
    the Fourier identity.  Let F = (-1)**tree, with coefficients F^(S)
    over the uniform cube.  Over the lifted span source, the character
    of S averages to 0 against (-1)**label when S covers some block
    partly, and for S = lift(s) it correlates 1 when H s = t and 0
    otherwise.  So the error is 1/2 - 1/2 * sum F^(U) over the lifts U
    of the solutions, and F^(U) is 0 unless U lies inside a path set:
    ``solution_unions`` solves for every term on the whole blocks of
    the tree's path sets, with no scan over their unions.

    Each N_U = F^(U) * 2**depth is one ``dtree.walk`` over the shared
    nodes.  A query in the rest of U gives (low - high) / 2, any other
    query (low + high) / 2, a repeated query the branch its first answer
    fixed, and a leaf +-1 once nothing of U remains.  A subtree that
    does not query all of the rest (a first walk finds what each node
    queries below it) gives 0.  The walks share a memo on (node, rest
    of U, fixed values of the coordinates queried below), so a tree
    that repeats no query costs O(nodes) per union at any depth.  Each
    node's value is scaled by 2**(its depth), an integer, and one
    Fraction is made at the end: (2**D - sum N_U) / 2**(D + 1).

    Raises:
        ValueError: when the span's length is not the base arity; from
            ``solution_unions``, when a node queries a coordinate past
            the lifted arity or the path sets or unions pass
            ``UNIONS_MAX``.
    """
    if span.length != params.base_n:
        raise ValueError("base arity does not match the gadget parameters")
    unions = solution_unions(tree, span, params)

    def queried(node: DecisionTree):
        # The coordinates queried at or below a node, as a lifted mask.
        if isinstance(node, Leaf):
            return 0
        return 1 << (node.coord - 1) | (yield node.low) | (yield node.high)

    def coefficient(state):
        node, rest, fixed, values = state
        if isinstance(node, Leaf):
            return 0 if rest else 1 - 2 * node.label
        if rest & ~below[id(node)]:
            return 0
        bit = 1 << (node.coord - 1)
        if fixed & bit:
            child = node.high if values & bit else node.low
            return (yield child, rest, fixed, values) << (node.depth - child.depth)
        low = yield node.low, rest & ~bit, fixed | bit, values
        high = yield node.high, rest & ~bit, fixed | bit, values | bit
        low <<= node.depth - 1 - node.low.depth
        high <<= node.depth - 1 - node.high.depth
        return low - high if rest & bit else low + high

    def key(state):
        node, rest, fixed, values = state
        live = below[id(node)]
        return id(node), rest, fixed & live, values & live

    below: dict[int, int] = {}
    walk(queried, tree, memo=below)
    memo: dict[tuple[int, int, int, int], int] = {}
    total = sum(walk(coefficient, (tree, union, 0, 0), key, memo) for union in unions)
    return Fraction((1 << tree.depth) - total, 1 << (tree.depth + 1))


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
