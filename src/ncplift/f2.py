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

from dataclasses import dataclass
from itertools import combinations, islice, repeat
from math import comb
from typing import Iterable, Iterator, NamedTuple, Sequence

__all__ = [
    "FormatError",
    "BitVector",
    "BitMatrix",
    "bit_column",
    "mat_vec",
    "Elimination",
    "eliminate",
    "rank",
    "row_reduce",
    "dual_basis",
    "XOR_TABLE_MAX_ENTRIES",
    "COSET_MAX_KERNEL_DIM",
    "COSET_STEP_COST",
    "SEARCH_MAX_COST",
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


class Elimination(NamedTuple):
    """Greedy GF(2) elimination of a list of packed vectors, with the
    combination of inputs behind every result.

    Inputs are taken in order, each reduced against the basis so far.
    ``basis`` holds the reduced forms of the inputs independent of the
    inputs before them, in input order; ``pivots[i]`` is the lowest set
    bit of ``basis[i]``, and every basis vector is clear of the pivots
    of the ones before it, so reducing against them in order clears
    each pivot for good.  ``combos[i]`` packs the inputs (bit j for
    input j) whose XOR is ``basis[i]``.  ``kernel`` has one entry per
    dependent input j, in input order: inputs whose XOR is zero, j the
    highest of them and the rest independent inputs.  The entries are a
    basis of the kernel, so ``len(basis) + len(kernel)`` is the number of
    inputs.
    """

    basis: tuple[int, ...]
    pivots: tuple[int, ...]
    combos: tuple[int, ...]
    kernel: tuple[int, ...]

    def reduce(self, v: int) -> tuple[int, int]:
        """``v`` reduced against the basis, and the inputs removed from
        it: the residue is 0 exactly when ``v`` is in the span, and then
        the XOR of the inputs in the combination is ``v``."""
        return _reduce(v, 0, self.basis, self.pivots, self.combos)


def _reduce(v: int, combo: int, basis, pivots, combos) -> tuple[int, int]:
    for b, piv, c in zip(basis, pivots, combos):
        if v & piv:
            v ^= b
            combo ^= c
    return v, combo


def eliminate(vectors: Iterable[int]) -> Elimination:
    """Greedy elimination of ``vectors`` in order; see ``Elimination``."""
    basis: list[int] = []
    pivots: list[int] = []
    combos: list[int] = []
    kernel: list[int] = []
    for j, v in enumerate(vectors):
        v, combo = _reduce(v, 1 << j, basis, pivots, combos)
        if v:
            basis.append(v)
            pivots.append(v & -v)
            combos.append(combo)
        else:
            kernel.append(combo)
    return Elimination(tuple(basis), tuple(pivots), tuple(combos), tuple(kernel))


def row_reduce(m: BitMatrix) -> BitMatrix:
    """Reduced row echelon form of ``m`` (same shape, zero rows last).

    Pivots are the lowest set bits of the eliminated rows.  In pivot
    order, each row is cleared of the pivots after its own, last row
    first, so every row XORed in is already clear of them.
    """
    elim = eliminate(m.row_masks)
    rows = sorted(elim.basis, key=lambda b: b & -b)
    for i in range(len(rows) - 1, 0, -1):
        piv = rows[i] & -rows[i]
        for j in range(i):
            if rows[j] & piv:
                rows[j] ^= rows[i]
    return BitMatrix(m.rows, m.cols, tuple(rows) + (0,) * len(elim.kernel))


def rank(m: BitMatrix) -> int:
    return len(eliminate(m.row_masks).basis)


def dual_basis(g: BitMatrix) -> BitMatrix:
    """Parity-check matrix for the column span of ``g``.

    The rows of the result form a basis of the space of vectors
    orthogonal to every column of ``g``, so ``H x = 0`` exactly when
    ``x`` lies in the column span.  These are the combinations of rows
    of ``g`` that XOR to zero: the kernel of eliminating the rows in
    order, one vector per row that depends on the rows before it, in
    ascending order of that row, with no other dependent row in it.  The
    result has ``g.rows - rank(g)`` rows.
    """
    kernel = eliminate(g.row_masks).kernel
    return BitMatrix(len(kernel), g.rows, kernel)


# ---------- sparse XOR search ----------

# Largest half-table ``sparse_xor_search`` builds; a size whose even
# split would need more splits lower instead.  A full table takes about
# 30 MiB: tracemalloc measured a 29.6 MiB peak for a search whose
# largest table held the 260130 supports of C(117, 3) (Python 3.11).
XOR_TABLE_MAX_ENTRIES = 1 << 18

# Kernel dimension past which ``sparse_xor_search`` never walks a coset:
# 2**28 steps take about a minute.
COSET_MAX_KERNEL_DIM = 28

# What one step of the coset path costs, in meet-in-the-middle steps,
# when ``sparse_xor_search`` weighs the two paths.  Both took 90 to 250
# ns a step on 64-bit columns (Python 3.11, 48 x 64 to 10 x 18 parity
# checks and the learner's lifted columns), an elimination step too.
COSET_STEP_COST = 1

# Most steps any exhaustive search takes on: ``sparse_xor_search``
# when a caller passes it as ``max_cost``, and the greedy learner's
# splitting, in the same unit.  At 90 to 250 ns a step (Python 3.11),
# about half a minute to a minute.
SEARCH_MAX_COST = 1 << 28

# Kernel vectors whose span makes one row of the coset walk.
_COSET_ROW_DIM = 10

_FINGERPRINT = (1 << 64) - 1


def sparse_xor_search(
    columns: Sequence[int],
    targets: tuple[int, ...],
    max_size: int,
    max_cost: int | None = None,
) -> tuple[int, int] | None:
    """First support whose column XOR equals one of the targets.

    Candidates are ordered by support size, then lexicographically by
    their ascending index tuples, then by target index; the first one
    whose XOR over ``columns`` equals its target is returned as
    ``(support, target index)``, the support packed with bit j standing
    for column j.  ``None`` when no support of size at most
    ``max_size`` fits any target.

    Two exact methods give that same answer, and the search takes the
    one its estimate says is cheaper.  The fits of one target form a
    coset p + K of the kernel K of the columns, so walking the coset
    costs ``2**dim K`` steps per target, however large ``max_size`` is;
    past ``COSET_MAX_KERNEL_DIM`` it is not considered.  Meeting in the
    middle costs about C(n, ceil(s/2)) steps per size s, however small
    the kernel is (``_mitm_cost``).  A coset step counts as
    ``COSET_STEP_COST`` of the others, and so does each of the about
    n * rank / 2 steps of the elimination the coset path needs.  The
    dimension of K is at least n minus the widest column's bit length,
    and the columns are eliminated only when even that bound leaves the
    coset walk the cheaper.

    Coset enumeration (``_coset_search``): one elimination of the
    columns, tracking combinations, gives a kernel basis and, for each
    target in the span, a particular solution p.  The coset is walked a
    row at a time: a row is the span of the first ``_COSET_ROW_DIM``
    kernel vectors XORed, at C level, into one element of the span of
    the rest, and those elements follow a Gray code, one XOR apart.  The
    walk keeps the first support in (size, lex) order; of two supports
    of one size, a comes first exactly when the lowest bit of a ^ b is
    set in a.  The targets are then compared the same way, ties going
    to the lower index.

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
        ValueError: when both estimates pass ``max_cost``, before any
            table or walk starts.
    """
    if max_size >= 0 and 0 in targets:
        return 0, targets.index(0)
    n = len(columns)
    mitm = _mitm_cost(n, len(targets), max_size)
    dim = max(0, n - max(map(int.bit_length, columns), default=0))
    elim = None
    if dim <= COSET_MAX_KERNEL_DIM and _coset_cost(len(targets), dim, 0, 0) <= mitm:
        elim = eliminate(columns)
        dim = len(elim.kernel)
    coset = _coset_cost(len(targets), dim, n, n - dim)
    use_coset = elim is not None and dim <= COSET_MAX_KERNEL_DIM and coset <= mitm
    if max_cost is not None and (coset if use_coset else mitm) > max_cost:
        bound = "" if elim is not None else "at least "
        raise ValueError(
            f"exact search too large: meeting in the middle takes about "
            f"2**{mitm.bit_length() - 1} steps and the coset walk {len(targets)} x "
            f"2**{dim} (kernel dimension {bound}{dim}), both past {max_cost}"
        )
    if use_coset:
        return _coset_search(elim, targets, max_size)
    try:
        return _search(columns, targets, _FINGERPRINT, max_size)
    except _FingerprintClash:
        return _search(columns, targets, -1, max_size)


def _mitm_cost(n: int, n_targets: int, max_size: int) -> int:
    """Steps of a meet-in-the-middle search that finds nothing: every
    table entry built, and every lower half streamed, once per target."""
    cost = half = 0
    for size in range(1, max_size + 1):
        if half < size // 2 and comb(n, half + 1) <= XOR_TABLE_MAX_ENTRIES:
            half += 1
            cost += comb(n, half)
        cost += n_targets * comb(n - half, size - half)
    return cost


def _coset_cost(n_targets: int, dim: int, n: int, rank: int) -> int:
    """Steps of the coset path: the walks, and eliminating n columns of
    the given rank."""
    return COSET_STEP_COST * ((n_targets << dim) + n * rank // 2)


def _coset_search(elim: Elimination, targets: tuple[int, ...], max_size: int) -> tuple[int, int] | None:
    """``sparse_xor_search`` by walking the coset of each target in the
    span of the eliminated columns."""
    best = None
    for ti, target in enumerate(targets):
        residue, particular = elim.reduce(target)
        if residue:
            continue
        cap = max_size if best is None else best[0].bit_count()
        support = _first_in_coset(particular, elim.kernel, cap)
        if support is not None and (best is None or _precedes(support, best[0])):
            best = (support, ti)
    return best


def _first_in_coset(particular: int, kernel: tuple[int, ...], max_size: int) -> int | None:
    """First support of at most ``max_size`` indices in (size, lex)
    order among ``particular`` XOR the span of ``kernel``, or None."""
    offsets = [0]
    for vec in kernel[:_COSET_ROW_DIM]:
        offsets += [x ^ vec for x in offsets]
    steps = kernel[_COSET_ROW_DIM:]
    best = None
    acc = particular
    for e in range(1 << len(steps)):
        if e:
            acc ^= steps[(e & -e).bit_length() - 1]
        size = min(map(int.bit_count, map(acc.__xor__, offsets)))
        if size > max_size:
            continue
        for support in map(acc.__xor__, offsets):
            if support.bit_count() == size and (best is None or _precedes(support, best)):
                best = support
        max_size = size
    return best


def _precedes(a: int, b: int) -> bool:
    """Whether support ``a`` comes before ``b`` in (size, lex) order."""
    size_a, size_b = a.bit_count(), b.bit_count()
    if size_a != size_b:
        return size_a < size_b
    diff = a ^ b
    return bool(diff & -diff & a)


class _FingerprintClash(Exception):
    """A fingerprint hit that the full columns reject: the table may have
    kept another support with the same fingerprint."""


def _search(
    columns: Sequence[int],
    targets: tuple[int, ...],
    key_mask: int,
    max_size: int,
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
            table = _half_table(low, bits, half)
        keys = table.keys()
        top = n - half
        for prefix in combinations(range(top - 1), size - half - 1):
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


def _half_table(low: list[int], bits: list[int], half: int) -> dict:
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
