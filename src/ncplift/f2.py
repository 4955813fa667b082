"""Dense linear algebra over GF(2) on bit-packed integers.

Vectors and matrix rows are stored as Python ints, one bit per
coordinate, so a row operation is a single XOR and an inner product is
an AND followed by a popcount.  Coordinates are 1-indexed in every
public API (supports, index sets, retained-row lists); the bit layout
inside the packed ints is a private detail.

The text format shared by the CLI and the test fixtures is: a first
line ``rows cols`` (decimal, one space), then ``rows`` lines each a
string of exactly ``cols`` characters from {0,1}.  Vectors are written
as matrices with a single row.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import combinations, islice, repeat
from math import comb
from typing import Iterable, Iterator, Sequence

__all__ = [
    "FormatError",
    "BitVector",
    "BitMatrix",
    "bit_column",
    "mat_vec",
    "rank",
    "row_reduce",
    "independent_row_basis",
    "dual_basis",
    "XOR_TABLE_MAX_ENTRIES",
    "sparse_xor_search",
    "format_matrix",
    "parse_matrix",
    "format_vector",
    "parse_vector",
]


class FormatError(ValueError):
    """Raised when a text payload does not match the expected format."""


def bit_column(i: int, log_size: int) -> int:
    """Packed column of index bits: bit e of the result is bit i of e.

    Over all e in range(2**log_size) this is the truth table of the
    i-th index bit, built by doubling instead of a 2**log_size loop.
    """
    if not 0 <= i < log_size:
        raise ValueError(f"bit index {i} out of range for log size {log_size}")
    half = 1 << i
    block = ((1 << half) - 1) << half
    span = half << 1
    total = 1 << log_size
    while span < total:
        block |= block << span
        span <<= 1
    return block


@dataclass(frozen=True)
class BitVector:
    """Immutable GF(2) vector; coordinate i is bit i-1 of ``mask``."""

    length: int
    mask: int

    def __post_init__(self) -> None:
        if self.length < 0:
            raise ValueError("negative length")
        if not 0 <= self.mask < (1 << self.length):
            raise ValueError("mask does not fit the stated length")

    @classmethod
    def zeros(cls, length: int) -> BitVector:
        return cls(length, 0)

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> BitVector:
        mask = 0
        n = 0
        for b in bits:
            if b not in (0, 1):
                raise ValueError("entries must be 0 or 1")
            mask |= b << n
            n += 1
        return cls(n, mask)

    @classmethod
    def from01(cls, text: str) -> BitVector:
        if not set(text) <= {"0", "1"}:
            raise FormatError(f"invalid characters in bit string {text!r}")
        return cls(len(text), int(text[::-1], 2) if text else 0)

    @classmethod
    def from_support(cls, indices: Iterable[int], length: int) -> BitVector:
        mask = 0
        for i in indices:
            if not 1 <= i <= length:
                raise ValueError(f"coordinate {i} out of range 1..{length}")
            mask |= 1 << (i - 1)
        return cls(length, mask)

    def bit(self, i: int) -> int:
        """Coordinate i (1-indexed)."""
        if not 1 <= i <= self.length:
            raise ValueError(f"coordinate {i} out of range 1..{self.length}")
        return (self.mask >> (i - 1)) & 1

    def support(self) -> tuple[int, ...]:
        """Indices of nonzero coordinates, ascending, 1-indexed."""
        m = self.mask
        out = []
        while m:
            low = m & -m
            out.append(low.bit_length())
            m ^= low
        return tuple(out)

    @property
    def sparsity(self) -> int:
        return self.mask.bit_count()

    def dot(self, other: BitVector) -> int:
        if self.length != other.length:
            raise ValueError("dimension mismatch in inner product")
        return (self.mask & other.mask).bit_count() & 1

    def __xor__(self, other: BitVector) -> BitVector:
        if self.length != other.length:
            raise ValueError("dimension mismatch in xor")
        return BitVector(self.length, self.mask ^ other.mask)

    def to01(self) -> str:
        return "".join("1" if (self.mask >> i) & 1 else "0" for i in range(self.length))

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[int]:
        for i in range(self.length):
            yield (self.mask >> i) & 1

    def __str__(self) -> str:
        return self.to01()


@dataclass(frozen=True)
class BitMatrix:
    """Immutable GF(2) matrix stored as one packed int per row."""

    rows: int
    cols: int
    row_masks: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative shape")
        if len(self.row_masks) != self.rows:
            raise ValueError("row count does not match row data")
        limit = 1 << self.cols
        for r in self.row_masks:
            if not 0 <= r < limit:
                raise ValueError("row mask does not fit the stated width")

    @classmethod
    def from_rows(cls, rows: Iterable[BitVector | str], cols: int | None = None) -> BitMatrix:
        vecs = [r if isinstance(r, BitVector) else BitVector.from01(r) for r in rows]
        if cols is None:
            if not vecs:
                raise ValueError("column count required for an empty matrix")
            cols = vecs[0].length
        for v in vecs:
            if v.length != cols:
                raise ValueError("ragged rows")
        return cls(len(vecs), cols, tuple(v.mask for v in vecs))

    @classmethod
    def identity(cls, n: int) -> BitMatrix:
        return cls(n, n, tuple(1 << i for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> BitMatrix:
        return cls(rows, cols, (0,) * rows)

    def row(self, i: int) -> BitVector:
        """Row i (1-indexed)."""
        if not 1 <= i <= self.rows:
            raise ValueError(f"row {i} out of range 1..{self.rows}")
        return BitVector(self.cols, self.row_masks[i - 1])

    def row_vectors(self) -> Iterator[BitVector]:
        for m in self.row_masks:
            yield BitVector(self.cols, m)

    def entry(self, i: int, j: int) -> int:
        """Entry at row i, column j (both 1-indexed)."""
        if not 1 <= i <= self.rows:
            raise ValueError(f"row {i} out of range 1..{self.rows}")
        if not 1 <= j <= self.cols:
            raise ValueError(f"column {j} out of range 1..{self.cols}")
        return (self.row_masks[i - 1] >> (j - 1)) & 1

    def column_masks(self) -> list[int]:
        """Columns packed as ints: bit i-1 of entry j-1 is the (i, j) entry."""
        if not self.rows or not self.cols:
            return [0] * self.cols
        # One binary string per row, last row first, so that reading a
        # string position down the rows spells a column, row 1 lowest.
        spelled = map(format, reversed(self.row_masks), repeat(f"0{self.cols}b"))
        return list(map(int, map("".join, zip(*spelled)), repeat(2)))[::-1]

    def transpose(self) -> BitMatrix:
        return BitMatrix(self.cols, self.rows, tuple(self.column_masks()))


def mat_vec(m: BitMatrix, v: BitVector) -> BitVector:
    """Matrix-vector product over GF(2).

    Args:
        m: matrix with ``cols`` matching ``v.length``.
        v: vector of length ``m.cols``.

    Returns:
        The product as a vector of length ``m.rows``.

    Raises:
        ValueError: on a dimension mismatch.
    """
    if m.cols != v.length:
        raise ValueError(f"dimension mismatch: {m.rows}x{m.cols} times length {v.length}")
    out = 0
    vm = v.mask
    for i, rm in enumerate(m.row_masks):
        if (rm & vm).bit_count() & 1:
            out |= 1 << i
    return BitVector(m.rows, out)


def _rref(masks: list[int], cols: int) -> tuple[list[int], list[int]]:
    """Reduced row echelon form in place semantics.

    Pivots on the lowest-index nonzero column at each step, eliminates
    above and below, and moves zero rows to the bottom.  Returns the
    reduced row masks and the pivot column indices (0-based, ascending).
    """
    work = list(masks)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        bit = 1 << c
        sel = None
        for i in range(r, len(work)):
            if work[i] & bit:
                sel = i
                break
        if sel is None:
            continue
        work[r], work[sel] = work[sel], work[r]
        for i in range(len(work)):
            if i != r and work[i] & bit:
                work[i] ^= work[r]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work, pivots


def row_reduce(m: BitMatrix) -> BitMatrix:
    """Reduced row echelon form of ``m`` (same shape, zero rows last)."""
    work, _ = _rref(list(m.row_masks), m.cols)
    return BitMatrix(m.rows, m.cols, tuple(work))


def rank(m: BitMatrix) -> int:
    _, pivots = _rref(list(m.row_masks), m.cols)
    return len(pivots)


def independent_row_basis(m: BitMatrix) -> tuple[BitMatrix, tuple[int, ...]]:
    """Maximal independent subset of the rows, kept in original order.

    Returns:
        A matrix made of the retained original rows and the 1-indexed
        list of retained row positions.
    """
    basis: list[tuple[int, int]] = []  # (reduced mask, pivot bit)
    kept: list[int] = []
    kept_masks: list[int] = []
    for idx, rm in enumerate(m.row_masks):
        red = rm
        for bm, piv in basis:
            if red & piv:
                red ^= bm
        if red:
            basis.append((red, red & -red))
            kept.append(idx + 1)
            kept_masks.append(rm)
    return BitMatrix(len(kept_masks), m.cols, tuple(kept_masks)), tuple(kept)


def dual_basis(g: BitMatrix) -> BitMatrix:
    """Parity-check matrix for the column span of ``g``.

    The rows of the result form a basis of the space of vectors
    orthogonal to every column of ``g``, so ``H x = 0`` exactly when
    ``x`` lies in the column span.  The result has ``g.rows - rank(g)``
    rows and is deterministic: elimination pivots on the lowest-index
    column and free columns are visited in ascending order.
    """
    n = g.rows
    gt = g.transpose()
    work, pivots = _rref(list(gt.row_masks), n)
    pivot_set = set(pivots)
    out_rows = []
    for f in range(n):
        if f in pivot_set:
            continue
        v = 1 << f
        fbit = 1 << f
        for j, p in enumerate(pivots):
            if work[j] & fbit:
                v |= 1 << p
        out_rows.append(v)
    return BitMatrix(len(out_rows), n, tuple(out_rows))


# ---------- sparse XOR search ----------

# Largest half-table ``sparse_xor_search`` builds; a size whose even
# split would need more splits lower instead.  A full table takes about
# 30 MiB: tracemalloc measured a 29.6 MiB peak for a search whose
# largest table held the 260130 supports of C(117, 3) (Python 3.11).
XOR_TABLE_MAX_ENTRIES = 1 << 18

_FINGERPRINT = (1 << 64) - 1


def sparse_xor_search(
    columns: Sequence[int],
    targets: tuple[int, ...],
    max_size: int,
    deadline: float | None = None,
) -> tuple[int, int] | None:
    """First support whose column XOR equals one of the targets.

    Candidates are ordered by support size, then lexicographically by
    their ascending index tuples, then by target index; the first one
    whose XOR over ``columns`` equals its target is returned as
    ``(support, target index)``, the support packed with bit j standing
    for column j.  ``None`` when no support of size at most
    ``max_size`` fits any target.

    Meet in the middle (the splitting step of Stern's low-weight
    codeword search): a support of size s splits into its lowest
    ``s - h`` indices L and its highest h indices U, where h is the
    largest split up to ``s // 2`` whose table of all C(n, h) upper
    halves holds at most ``XOR_TABLE_MAX_ENTRIES`` entries.  The table
    maps the fingerprint (low 64 bits) of the XOR over every U to the
    lexicographically first U with that fingerprint.  The L are streamed
    in lexicographic order against it, and a fingerprint hit counts only
    if the full columns of L | U confirm it.  Supports sharing L are
    ordered by U, so the first L with a hit holds the answer and the
    stream stops there.  A U that is not wholly above L never decides:
    if it overlaps L, L | U is a smaller support, which the smaller
    sizes already ruled out, and otherwise the support's own lowest
    indices come earlier in the stream and would have stopped it.  h = 0
    (size 1, or a table that would not fit) is a one-entry table and the
    stream is the plain scan.

    Both sides go a row at a time.  A streamed row is every L that
    shares all its indices but the last; the row's fingerprints, the
    prefix XOR with each later column, are probed for every target at C
    level, and only a row with a hit is walked index by index.  A table
    row is every U with the same lowest index, and it goes into the
    table with one ``dict.update``; rows run in decreasing lexicographic
    order, so each fingerprint keeps its first U.  A hit that the full
    columns reject means two XORs share their low 64 bits, and the table
    may have kept the wrong one of them, so the search starts again
    keyed on the full columns.  A table is built only when h changes and
    only the current one is held, so memory stays bounded for every
    size.

    Raises:
        TimeoutError: when ``time.monotonic()`` passes ``deadline``.
    """
    if max_size >= 0 and 0 in targets:
        return 0, targets.index(0)
    try:
        return _search(columns, targets, _FINGERPRINT, max_size, deadline)
    except _FingerprintClash:
        return _search(columns, targets, -1, max_size, deadline)


class _FingerprintClash(Exception):
    """A fingerprint hit that the full columns reject: the table may have
    kept another support with the same fingerprint."""


def _search(
    columns: Sequence[int],
    targets: tuple[int, ...],
    key_mask: int,
    max_size: int,
    deadline: float | None,
) -> tuple[int, int] | None:
    """``sparse_xor_search`` with tables keyed on ``column & key_mask``."""
    n = len(columns)
    low = [c & key_mask for c in columns]
    prints = [t & key_mask for t in targets]
    bits = [1 << j for j in range(n)]
    half, table = 0, {0: 0}
    for size in range(1, max_size + 1):
        if half < size // 2 and comb(n, half + 1) <= XOR_TABLE_MAX_ENTRIES:
            half += 1
            table = _half_table(low, bits, half, deadline)
        keys = table.keys()
        top = n - half
        for prefix in combinations(range(top - 1), size - half - 1):
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError("deadline passed during the sparse XOR search")
            mask = acc = 0
            for j in prefix:
                mask |= bits[j]
                acc ^= low[j]
            start = prefix[-1] + 1 if prefix else 0
            row = low[start:top]
            for target_fp in prints:
                if not keys.isdisjoint(map((acc ^ target_fp).__xor__, row)):
                    break
            else:
                continue
            for j in range(start, top):
                hit = _confirmed_hit(columns, targets, prints, table, mask | bits[j], acc ^ low[j])
                if hit is not None:
                    return hit
    return None


def _confirmed_hit(
    columns: Sequence[int],
    targets: tuple[int, ...],
    prints: list[int],
    table: dict,
    lower: int,
    fp: int,
) -> tuple[int, int] | None:
    """The first (by upper half, then target) support that ``lower`` and
    an upper half in the table make for some target, as ``(support,
    target index)``.

    Raises:
        _FingerprintClash: when the full columns reject a table hit.
    """
    best = None
    for ti, target_fp in enumerate(prints):
        upper = table.get(fp ^ target_fp)
        if upper is None:
            continue
        if _xor_columns(columns, lower | upper) != targets[ti]:
            raise _FingerprintClash
        hit = (_indices(upper), ti, lower | upper)
        if best is None or hit < best:
            best = hit
    return None if best is None else (best[2], best[1])


def _half_table(low: list[int], bits: list[int], half: int, deadline: float | None) -> dict:
    """Every XOR of ``half >= 1`` columns, mapped to the
    lexicographically first support of ``half`` indices that makes it.

    Supports of each size are listed in decreasing lexicographic order:
    row a, from the last index down, puts a in front of every support
    one index smaller whose indices all lie above a, and those lead the
    list of that size.  The last size goes into the table a row at a
    time, in that order, so each key keeps the last support written for
    it, its lexicographically first.
    """
    n = len(low)
    fps, uppers = low[::-1], bits[::-1]
    table = dict(zip(fps, uppers)) if half == 1 else {}
    for level in range(2, half + 1):
        longer_fps: list[int] = []
        longer_uppers: list[int] = []
        for a in range(n - level, -1, -1):
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError("deadline passed during the sparse XOR search")
            count = comb(n - 1 - a, level - 1)
            row_fps = map(low[a].__xor__, islice(fps, count))
            row_uppers = map(bits[a].__or__, islice(uppers, count))
            if level == half:
                table.update(zip(row_fps, row_uppers))
            else:
                longer_fps.extend(row_fps)
                longer_uppers.extend(row_uppers)
        fps, uppers = longer_fps, longer_uppers
    return table


def _xor_columns(columns: Sequence[int], mask: int) -> int:
    acc = 0
    for j in _indices(mask):
        acc ^= columns[j]
    return acc


def _indices(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


# ---------- text format ----------


def format_matrix(m: BitMatrix) -> str:
    lines = [f"{m.rows} {m.cols}"]
    lines.extend(v.to01() for v in m.row_vectors())
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> BitMatrix:
    if not text.endswith("\n"):
        raise FormatError("matrix text must end with a newline")
    lines = text.split("\n")[:-1]
    if not lines:
        raise FormatError("empty matrix text")
    head = lines[0].split(" ")
    if len(head) != 2:
        raise FormatError(f"malformed header line {lines[0]!r}")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError as e:
        raise FormatError(f"malformed header line {lines[0]!r}") from e
    if rows < 0 or cols < 0:
        raise FormatError("negative dimensions")
    if len(lines) != rows + 1:
        raise FormatError(f"expected {rows} row lines, found {len(lines) - 1}")
    masks = []
    for ln in lines[1:]:
        if len(ln) != cols or not set(ln) <= {"0", "1"}:
            raise FormatError(f"malformed row line {ln!r}")
        masks.append(BitVector.from01(ln).mask)
    return BitMatrix(rows, cols, tuple(masks))


def format_vector(v: BitVector) -> str:
    return f"1 {v.length}\n{v.to01()}\n"


def parse_vector(text: str) -> BitVector:
    m = parse_matrix(text)
    if m.rows != 1:
        raise FormatError(f"expected a single-row vector, found {m.rows} rows")
    return BitVector(m.cols, m.row_masks[0])
