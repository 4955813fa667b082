"""Uniform examples over the linear span of a labeled basis.

The labels of a labeled set with independent points extend linearly to
the whole span: the point indexed by a subset I is the XOR of the basis
points in I, and its label is the XOR of their labels.  Sampling a
uniform subset therefore emits uniform labeled span points in time
proportional to the basis size.  ``SpanOracle.sample`` folds the subset
through XOR tables of ``FOLD_ROWS`` basis rows each; ``sample_span`` is
the plain per-bit fold, kept as its oracle.

Key exact fact, verified by the test suites rather than assumed here:
for any parity, the disagreement fraction over the full span is either
exactly zero (the parity matches every basis label) or exactly one
half.  ``exact_disagreement`` computes the fraction by enumerating the
span, bit-sliced, so it is an independent check of that dichotomy.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .dtree import ParityIndexSet
from .f2 import BitMatrix, BitVector, bit_column, rank
from .instance import LabeledSet

__all__ = [
    "SpanOracle",
    "make_span_oracle",
    "sample_span",
    "enumerate_span",
    "exact_disagreement",
]

DEFAULT_MAX_DIMENSION = 20

# Basis rows per XOR table of ``SpanOracle.sample``.  A group's table
# holds 2**FOLD_ROWS entries, so the tables hold 2**FOLD_ROWS / FOLD_ROWS
# ints per basis row, each as wide as a basis point: four at 4 rows, so
# at most four times the basis the oracle keeps anyway.  8-row tables
# would hold 32 per row, about 86 MB at m = 4000, n = 5000.
FOLD_ROWS = 4
_FOLD_MASK = (1 << FOLD_ROWS) - 1


class SpanOracle:
    """Sampling and enumeration handle for the span of a labeled basis.

    Immutable after construction.  ``points`` and ``labels`` keep the
    basis in its original order; ``dimension`` is the basis size, so the
    span has ``2**dimension`` elements, all distinct.  The sampling
    tables and the bit-sliced span are built on first use.
    """

    __slots__ = ("length", "dimension", "points", "labels", "_table", "_fold")

    def __init__(self, labeled: LabeledSet) -> None:
        self._fill(labeled)
        m = self.dimension
        if m and rank(BitMatrix(m, self.length, self.points)) != m:
            raise ValueError("span construction requires independent points")

    @classmethod
    def _independent(cls, labeled: LabeledSet) -> SpanOracle:
        # For points already known independent, such as the rows that
        # ``normalize_syndrome`` keeps: no second elimination.
        oracle = object.__new__(cls)
        oracle._fill(labeled)
        return oracle

    def _fill(self, labeled: LabeledSet) -> None:
        self.length = labeled.length
        self.points = tuple(p.mask for p in labeled.points)
        self.dimension = len(self.points)
        self.labels = tuple(labeled.labels)
        self._table = None
        self._fold = None

    def sample(self, rng: Random) -> tuple[BitVector, int]:
        """One uniform labeled span point, drawn as ``sample_span``
        draws it, from the same ``getrandbits(dimension)``.

        The subset is folded ``FOLD_ROWS`` bits at a time: entry e of
        a group's table is the XOR of ``point << 1 | label`` over the
        group's rows set in e, so a draw takes one lookup per group.
        The point is an XOR of basis points, each checked against
        ``length`` when the oracle was built, so its ``BitVector`` is
        built unchecked.
        """
        m = self.dimension
        subset = rng.getrandbits(m)
        tables = self._fold
        if tables is None:
            tables = self._fold_tables()
        acc = 0
        rows, low = FOLD_ROWS, _FOLD_MASK
        for table in tables:
            acc ^= table[subset & low]
            subset >>= rows
        return BitVector._unchecked(self.length, acc >> 1), acc & 1

    def label_column(self, rng: Random, count: int) -> int:
        """The labels of ``count`` draws of ``sample`` from ``rng``, bit
        r the label of draw r: the same subsets are drawn, and each
        label is the parity of the subset's labeled rows, with no point
        built."""
        m = self.dimension
        labeled = sum(label << i for i, label in enumerate(self.labels))
        column = 0
        for r in range(count):
            subset = rng.getrandbits(m)
            column |= ((subset & labeled).bit_count() & 1) << r
        return column

    def _fold_tables(self) -> list[list[int]]:
        """The XOR tables of ``sample``, built by doubling, one per
        group of ``FOLD_ROWS`` basis rows, the last group possibly
        shorter.  Cached; safe to race because the build is idempotent."""
        rows = [p << 1 | label for p, label in zip(self.points, self.labels)]
        tables = []
        for start in range(0, len(rows), FOLD_ROWS):
            table = [0]
            for row in rows[start:start + FOLD_ROWS]:
                table += [x ^ row for x in table]
            tables.append(table)
        self._fold = tables
        return tables

    def enumerate_weighted(self):
        w = Fraction(1, 1 << self.dimension)
        for point, label in enumerate_span(self):
            yield point, w, label

    def bitsliced(self) -> tuple[list[int], int]:
        """Span as packed columns: entry e of column j is coordinate j of
        the span element indexed by subset e; plus the label column.

        Cached; safe to race because the computation is idempotent.
        """
        if self._table is None:
            m = self.dimension
            waves = [bit_column(i, m) for i in range(m)]
            cols = [0] * self.length
            label_col = 0
            for i, pm in enumerate(self.points):
                w = waves[i]
                if self.labels[i]:
                    label_col ^= w
                while pm:
                    low = pm & -pm
                    cols[low.bit_length() - 1] ^= w
                    pm ^= low
            self._table = (cols, label_col)
        return self._table


def make_span_oracle(labeled: LabeledSet) -> SpanOracle:
    """Build the span oracle; rejects dependent or duplicate points."""
    return SpanOracle(labeled)


def sample_span(oracle: SpanOracle, rng: Random) -> tuple[BitVector, int]:
    """One uniform labeled span point: a fresh uniform subset of the
    basis, XOR-folded with its labels a set bit at a time.  The oracle
    of ``SpanOracle.sample``."""
    subset = rng.getrandbits(oracle.dimension)
    pm = 0
    label = 0
    while subset:
        low = subset & -subset
        i = low.bit_length() - 1
        pm ^= oracle.points[i]
        label ^= oracle.labels[i]
        subset ^= low
    return BitVector(oracle.length, pm), label


def enumerate_span(oracle: SpanOracle) -> list[tuple[BitVector, int]]:
    """All 2**dimension labeled span points, in Gray-code subset order
    so consecutive elements differ by one basis point."""
    m = oracle.dimension
    if m > DEFAULT_MAX_DIMENSION:
        raise ValueError(f"span enumeration capped at dimension {DEFAULT_MAX_DIMENSION}")
    out = [(BitVector(oracle.length, 0), 0)]
    pm = 0
    label = 0
    prev = 0
    for e in range(1, 1 << m):
        g = e ^ (e >> 1)
        i = (g ^ prev).bit_length() - 1
        pm ^= oracle.points[i]
        label ^= oracle.labels[i]
        prev = g
        out.append((BitVector(oracle.length, pm), label))
    return out


def exact_disagreement(oracle: SpanOracle, s: ParityIndexSet) -> Fraction:
    """Exact fraction of span elements where the parity misses the label.

    Enumerates the span through the bit-sliced table: the parity column
    is the XOR of the selected coordinate columns, and the mismatch
    count is one popcount against the label column.
    """
    if oracle.dimension > DEFAULT_MAX_DIMENSION:
        raise ValueError(f"span enumeration capped at dimension {DEFAULT_MAX_DIMENSION}")
    if s.indices and s.indices[-1] > oracle.length:
        raise ValueError("parity index exceeds the ambient arity")
    cols, label_col = oracle.bitsliced()
    acc = 0
    for i in s.indices:
        acc ^= cols[i - 1]
    return Fraction((acc ^ label_col).bit_count(), 1 << oracle.dimension)
