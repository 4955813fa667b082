"""Dense linear algebra over GF(2) on bit-packed integers.

Vectors and matrix rows are stored as Python ints, one bit per
coordinate, so a row operation is a single XOR and an inner product is
an AND followed by a popcount.  Coordinates are 1-indexed in every
public API (supports, index sets, retained-row lists); the bit layout
inside the packed ints is a private detail.

The text format shared by the CLI and the test fixtures is: a first
line ``rows cols`` (ASCII decimal, one space), then ``rows`` lines each a
string of exactly ``cols`` characters from {0,1}.  Vectors are written
as matrices with a single row.  Each row of this format, of an instance
file and of ``BitVector.from01`` is read, and its width and alphabet
checked, once, by one parser (``_row_mask``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations, compress, count, repeat
from math import comb
from typing import Iterable, Iterator, Sequence

__all__ = [
    "FormatError",
    "BitVector",
    "BitMatrix",
    "bit_column",
    "mat_vec",
    "Elimination",
    "eliminate",
    "rank",
    "dual_basis",
    "XOR_TABLE_MAX_ENTRIES",
    "SEARCH_MAX_COST",
    "sparse_xor_search",
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
    def _unchecked(cls, length: int, mask: int) -> BitVector:
        # For a mask already known to fit the length: no validation, and
        # the fields go straight into the instance dict, which is all the
        # frozen __init__ would leave there.
        v = object.__new__(cls)
        fields = v.__dict__
        fields["length"] = length
        fields["mask"] = mask
        return v

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
        return cls(len(text), _row_mask(text, len(text), "bit string"))

    @classmethod
    def from_support(cls, indices: Iterable[int], length: int) -> BitVector:
        mask = 0
        for i in indices:
            if not 1 <= i <= length:
                raise ValueError(f"coordinate {i} out of range 1..{length}")
            mask |= 1 << (i - 1)
        return cls(length, mask)

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

    def __xor__(self, other: BitVector) -> BitVector:
        if self.length != other.length:
            raise ValueError("dimension mismatch in xor")
        return BitVector(self.length, self.mask ^ other.mask)

    def to01(self) -> str:
        """Coordinate 1 first; one format call, linear in the length."""
        # format(0, "00b") is "0", so length 0 needs its own case.
        return format(self.mask, f"0{self.length}b")[::-1] if self.length else ""

    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[int]:
        return map(int, self.to01())

    def __str__(self) -> str:
        return self.to01()


# Entry b maps every byte to the ASCII digit of its bit b.
_BIT_DIGITS = tuple(bytes(0x30 | v >> b & 1 for v in range(256)) for b in range(8))


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

    def row_vectors(self) -> Iterator[BitVector]:
        for m in self.row_masks:
            yield BitVector(self.cols, m)

    def column_masks(self) -> list[int]:
        """Columns packed as ints: bit i-1 of entry j-1 is the (i, j) entry."""
        w = self.cols
        if not self.rows or not w:
            return [0] * w
        # Every row as `width` little-endian bytes, last row first, in one
        # bytes object: every width-th byte from byte c // 8 holds column c
        # of each row, row 1 last, and mapping those bytes to the digit of
        # their bit c % 8 spells the column in binary, row 1 lowest.
        width = (w + 7) // 8
        packed = b"".join(map(int.to_bytes, reversed(self.row_masks), repeat(width), repeat("little")))
        return [int(packed[c >> 3::width].translate(_BIT_DIGITS[c & 7]), 2) for c in range(w)]


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


@dataclass(frozen=True)
class Elimination:
    """Greedy GF(2) elimination of a list of packed vectors, with the
    combination of inputs behind every result.

    Inputs are taken in order, each reduced against the basis so far by
    clearing its highest set bit with the basis vector whose pivot it
    is, until that bit is no pivot.  ``basis`` holds the reduced forms
    of the inputs independent of the inputs before them, in input order;
    the pivot of a basis vector is its highest set bit, no two pivots
    are equal, and a basis vector may keep pivot bits below its own.
    ``combos[i]`` packs the inputs (bit j for input j) whose XOR is
    ``basis[i]``: the input it reduces, its highest bit, and independent
    inputs before that.  ``kernel`` has one entry per dependent input j,
    in input order: inputs whose XOR is zero, j the highest of them and
    the rest independent inputs.  The entries are a basis of the kernel,
    so ``len(basis) + len(kernel)`` is the number of inputs.  No two XORs
    of independent inputs are equal, so the kernel, the rank and the
    highest bit of each of ``combos`` depend only on the inputs, not on
    how the basis is laid out.

    ``reduce`` uses the pivot table that ``eliminate`` built, each basis
    vector carrying its combination in the low bits, and ``basis`` and
    ``combos`` are read out of it.
    """

    kernel: tuple[int, ...]
    _by_top: dict[int, int]
    _inputs: int

    @property
    def basis(self) -> tuple[int, ...]:
        return tuple(v >> self._inputs for v in self._by_top.values())

    @property
    def combos(self) -> tuple[int, ...]:
        low = (1 << self._inputs) - 1
        return tuple(v & low for v in self._by_top.values())

    def reduce(self, v: int) -> tuple[int, int]:
        """``v`` reduced against the basis until its highest set bit is
        no pivot, and the inputs removed from it: the residue is 0
        exactly when ``v`` is in the span, and then the XOR of the inputs
        in the combination is ``v``.  A nonzero residue may keep pivot
        bits below its highest bit."""
        m = self._inputs
        v = _reduce(v << m, self._by_top)
        return v >> m, v & ((1 << m) - 1)


def _reduce(v: int, by_top: dict[int, int]) -> int:
    """``v`` and the basis vectors, which ``by_top`` keys by bit length,
    carry their combination of the ``m`` inputs in their low ``m`` bits;
    one XOR clears the highest bit of ``v`` and updates its combination.
    Every key is above ``m``, so no combination bit is taken for a pivot."""
    while hit := by_top.get(v.bit_length()):
        v ^= hit
    return v


def eliminate(vectors: Iterable[int]) -> Elimination:
    """Greedy elimination of ``vectors`` in order; see ``Elimination``.
    The basis is kept by pivot, input j of m packed as ``v << m | 1 << j``
    (so the inputs are read before the first is packed): an input costs a
    lookup and an XOR per bit it clears."""
    vectors = tuple(vectors)
    m = len(vectors)
    low = (1 << m) - 1
    by_top: dict[int, int] = {}
    kernel: list[int] = []
    for j, v in enumerate(vectors):
        v = _reduce(v << m | 1 << j, by_top)
        if v > low:
            by_top[v.bit_length()] = v
        else:
            kernel.append(v)
    return Elimination(tuple(kernel), by_top, m)


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

# Most upper halves whose XORs ``sparse_xor_search`` puts in its table;
# a size whose even split would need more splits lower instead.  The
# levels the table is built from, no more entries in all, are kept too.
# At the cap that takes about 23 MiB: tracemalloc measured a 23.2 MiB
# peak (29.6 MiB for the dict of upper halves this replaced) for a
# size-7 miss over 117 columns of 64 bits, whose table held the
# C(117, 3) = 260130 XORs of three columns, from levels over the lowest
# 114; that search took 1.2 to 2.2 s of CPU untraced (1.5 to 2.4 s for
# the dict) on a shared 2-vCPU host, Python 3.11.
XOR_TABLE_MAX_ENTRIES = 1 << 18

# Most steps ``sparse_xor_search`` may take.  At 90 to 250 ns a step
# (Python 3.11), about half a minute to a minute.
SEARCH_MAX_COST = 1 << 28

# Kernel vectors whose span makes one row of the coset walk.
_COSET_ROW_DIM = 10


def sparse_xor_search(columns: Sequence[int], target: int, max_size: int) -> int | None:
    """First support whose column XOR equals ``target``.

    Candidates are ordered by support size, then lexicographically by
    their ascending index tuples; the first one whose XOR over
    ``columns`` equals the target is returned packed, bit j standing
    for column j.  ``None`` when no support of size at most
    ``max_size`` fits.

    Two exact methods give that same answer, and the search takes the
    one its estimate says is cheaper.  The fits form a coset p + K of
    the kernel K of the columns, so walking the coset costs ``2**dim K``
    steps, however large ``max_size`` is.  Meeting in the middle costs
    about C(n, ceil(s/2)) steps per size s, however small the kernel is
    (``_mitm_cost``).  A coset step counts as one of the others, and so
    does each of the about n * rank / 2 steps of the elimination the
    coset path needs (``_coset_cost``).  The dimension of K is at least
    n minus the widest column's bit length, and the columns are
    eliminated only when even that bound leaves the coset walk the
    cheaper and within ``SEARCH_MAX_COST``.  When they are, a target
    outside their span has no fit, and the search ends at once.

    Coset enumeration (``_first_in_coset``): one elimination of the
    columns, tracking combinations, gives a kernel basis and, for a
    target in the span, a particular solution p.  The coset is walked a
    row at a time: a row is the span of the first ``_COSET_ROW_DIM``
    kernel vectors XORed, at C level, into one element of the span of
    the rest, and those elements follow a Gray code, one XOR apart.  The
    walk keeps the first support in (size, lex) order; of two supports
    of one size, a comes first exactly when the lowest bit of a ^ b is
    set in a.

    Meet in the middle (``_search``, the splitting step of Stern's
    low-weight codeword search): a support of size s splits into its
    lowest ``s - h`` indices L and its highest h indices U, where h is
    the largest split up to ``s // 2`` whose C(n, h) upper halves number
    at most ``XOR_TABLE_MAX_ENTRIES`` (``_splits``).  L lies below
    n - h, as h indices must fit above it.  Level j lists the XOR over
    every support of j indices below n - h in lexicographic order, so
    the first occurrence of an XOR in it comes from the
    lexicographically first support that makes it, and the supports
    whose indices all lie above an index a are a suffix of it.  Level j
    is built from level j - 1 with one C-level ``extend`` per lowest
    index (``_next_level``), and levels 0 to h are built again whenever
    h grows, as n - h shrinks.  An upper half is a support of i indices
    below n - h, from level i, joined with h - i of the top h indices,
    so the table, the set of the XORs of all C(n, h) upper halves, takes
    one C-level ``update`` per subset of the top h indices.  While h is
    at most 1 the levels run over all n columns instead: level 1 is the
    columns themselves, the table is the set of level h, and the
    one-index tails of the lower halves stop below n - h within it.

    The L are streamed in lexicographic order.  Each L is a prefix of
    its lowest ``s - h - g`` indices followed by g indices above the
    prefix, a suffix of level g = max(h, 1), so one C-level
    ``isdisjoint`` probe of the table per prefix covers every L that
    shares the prefix: while the cap leaves h at ``s // 2``, one probe
    for s = 1 or an even s and n - 2h for an odd s > 1.  A size probes
    exactly its C(n - h, s - h) lower halves, the count ``_mitm_cost``
    charges.  The first prefix with a hit holds the answer and the
    stream stops there: the first hit in the suffix, found at C level,
    unranks to the rest of L (``_unrank``), and U is the
    lexicographically first upper half with the XOR that L leaves
    (``_first_upper``).

    Every hit is a fit, and every U with its XOR lies wholly above its
    L, so L and U are the lowest and highest indices of the support they
    make: a U that overlaps L makes the smaller support L ^ U fit, which
    the smaller sizes already ruled out; and a U with an index below L's
    highest makes a support whose own lowest ``s - h`` indices come
    before L in the stream, with the rest of it as their U, so the
    stream would have stopped there.  So the lexicographically first U
    with the hit's XOR is the first above L, and the supports that share
    L are ordered by U.  h = 0 (size 1, or a level 1 that would not fit)
    is the one-entry table {0}, and the stream is the plain scan.  Only
    the current table is held, with levels 0 to h, each no longer than
    the table for h up to n / 2, so memory stays bounded for every size.

    Raises:
        ValueError: when both estimates pass ``SEARCH_MAX_COST``, before
            any table or walk starts, and before the elimination when the
            floor on the coset walk passes it, which
            ``_check_search_shape`` finds from the columns' shape alone.
    """
    if max_size >= 0 and not target:
        return 0
    n = len(columns)
    width = max(map(int.bit_length, columns), default=0)
    mitm, coset = _check_search_shape(n, width, max_size)
    if coset > min(mitm, SEARCH_MAX_COST):
        return _search(columns, target, max_size)
    elim = eliminate(columns)
    dim = len(elim.kernel)
    coset = _coset_cost(dim, n, n - dim)
    _check_estimates(mitm, coset, dim, "")
    residue, particular = elim.reduce(target)
    if residue:
        return None
    if coset <= mitm:
        return _first_in_coset(particular, elim.kernel, max_size)
    return _search(columns, target, max_size)


def _check_search_shape(n: int, width: int, max_size: int) -> tuple[int, int]:
    """Raise the ``ValueError`` that ``sparse_xor_search`` would raise,
    before it eliminates anything, over ``n`` columns of at most
    ``width`` bits for a nonzero target up to size ``max_size``;
    otherwise return the meet-in-the-middle estimate and the coset
    walk's at the kernel dimension's floor ``n - width``.  The search
    takes its first estimates from here, so this refuses only what the
    search refuses."""
    dim = max(0, n - width)
    mitm = _mitm_cost(n, max_size)
    coset = _coset_cost(dim, 0, 0)
    _check_estimates(mitm, coset, dim, "at least ")
    return mitm, coset


def _check_estimates(mitm: int, coset: int, dim: int, bound: str) -> None:
    """Refuse a search whose meet-in-the-middle and coset estimates both
    pass ``SEARCH_MAX_COST``; ``dim`` is the kernel dimension behind
    ``coset``, prefixed by ``bound`` ("at least ") when it is a floor."""
    if min(mitm, coset) > SEARCH_MAX_COST:
        raise ValueError(
            f"exact search too large: meeting in the middle takes at least "
            f"2**{mitm.bit_length() - 1} steps and the coset walk "
            f"2**{dim} (kernel dimension {bound}{dim}), both past "
            f"SEARCH_MAX_COST = {SEARCH_MAX_COST}"
        )


def _splits(n: int, max_size: int) -> Iterator[tuple[int, int]]:
    """Each support size s from 1 to ``min(max_size, n)`` (no support is
    larger) with the split h that meeting in the middle takes for it.
    s // 2 grows by at most one a size and C(n, h) grows with h up to
    n / 2, so one step a size keeps h the largest that fits."""
    half = 0
    for size in range(1, min(max_size, n) + 1):
        if half < size // 2 and comb(n, half + 1) <= XOR_TABLE_MAX_ENTRIES:
            half += 1
        yield size, half


def _mitm_cost(n: int, max_size: int) -> int:
    """Steps of a meet-in-the-middle search that finds nothing: every
    table entry built, and every lower half that can hit streamed.  It
    stops at the first size that takes it past ``SEARCH_MAX_COST``:
    exact up to the bound, a lower bound past it.

    The search probes exactly the C(n - h, s - h) lower halves counted
    here, with one Python step per prefix.  Its table of C(n, h) entries
    is built from levels of C(n - h, j) entries for j up to h, at most
    C(n, h) in all, as C(n, h) sums C(n - h, j) C(h, h - j) over j, with
    one Python step per subset of the top h indices.  So its work stays
    within a small multiple of this count.  Each lower half is one XOR
    and one set lookup at C level, about 75 ns on 64 columns of 48 bits
    (Python 3.11), below the 90 to 250 ns a step ``SEARCH_MAX_COST``
    assumes."""
    cost = built = 0
    for size, half in _splits(n, max_size):
        if half > built:
            built = half
            cost += comb(n, half)
        cost += comb(n - half, size - half)
        if cost > SEARCH_MAX_COST:
            break
    return cost


def _coset_cost(dim: int, n: int, rank: int) -> int:
    """Steps of the coset path: the walk, and eliminating n columns of
    the given rank, each counted as one meet-in-the-middle step: both
    took 90 to 250 ns a step on 64-bit columns, and an elimination 60 to
    230 ns per step charged (Python 3.11, a shared 2-vCPU host)."""
    return (1 << dim) + n * rank // 2


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


def _search(columns: Sequence[int], target: int, max_size: int) -> int | None:
    """``sparse_xor_search`` by meeting in the middle."""
    n = len(columns)
    levels, starts = _levels(columns, 1)
    built, tops = None, [(0, 0)]
    for size, half in _splits(n, max_size):
        if half != built:
            built, low, tail = half, n - half, max(half, 1)
            if half > 1:
                levels, starts = _levels(columns[:low], half)
                tops = [(0, 0)]
                for j in range(low, n):
                    tops += [(xor ^ columns[j], top | 1 << j) for xor, top in tops]
            level, start = levels[tail], starts[tail]
            stop = start[low - tail + 1]
            table = set(levels[half])
            for xor, top in tops[1:]:
                table.update(map(xor.__xor__, levels[half - top.bit_count()]))
        for prefix in combinations(range(low - tail), size - half - tail):
            key = target
            for j in prefix:
                key ^= columns[j]
            first = start[prefix[-1] + 1] if prefix else 0
            tails = level[first:stop]
            if table.isdisjoint(map(key.__xor__, tails)):
                continue
            pos = next(compress(count(), map(table.__contains__, map(key.__xor__, tails))))
            lower = sum(1 << j for j in prefix) | _unrank(starts, tail, first + pos)
            return lower | _first_upper(levels, starts, tops, half, key ^ tails[pos])
    return None


def _first_upper(
    levels: list[list[int]], starts: list[list[int]], tops: list[tuple[int, int]], half: int, xor: int
) -> int:
    """The lexicographically first support of ``half`` indices whose
    XOR is ``xor``, which is in the table.  Each subset of the top
    indices in ``tops`` (its XOR, then its support; only the empty one
    while half is at most 1) is completed by the first occurrence of the
    XOR it leaves in the level of the remaining size."""
    best = None
    for top_xor, top in tops:
        size = half - top.bit_count()
        if xor ^ top_xor in levels[size]:
            upper = top | _unrank(starts, size, levels[size].index(xor ^ top_xor))
            if best is None or _precedes(upper, best):
                best = upper
    return best


def _levels(columns: Sequence[int], top: int) -> tuple[list[list[int]], list[list[int]]]:
    """Levels 0 to ``top`` (at least 1) over ``columns`` and their start
    lists (``_next_level``)."""
    n = len(columns)
    levels, starts = [[0], list(columns)], [[0] * (n + 1), list(range(n + 1))]
    while len(levels) <= top:
        level, start = _next_level(columns, levels[-1], starts[-1])
        levels.append(level)
        starts.append(start)
    return levels, starts


def _next_level(columns: Sequence[int], level: list[int], start: list[int]) -> tuple[list[int], list[int]]:
    """The level after ``level``: the XOR over every support of one more
    index, in lexicographic order, and its ``start`` list.

    ``start[a]`` is the position in ``level`` of its first support whose
    lowest index is at least a, for a from 0 to n, so the supports whose
    indices all lie above a are the suffix from ``start[a + 1]``.  The
    longer supports with lowest index a are a in front of each of them,
    in the same order.
    """
    longer: list[int] = []
    longer_start = []
    for a, column in enumerate(columns):
        longer_start.append(len(longer))
        longer.extend(map(column.__xor__, level[start[a + 1]:]))
    longer_start.append(len(longer))
    return longer, longer_start


def _unrank(starts: list[list[int]], size: int, position: int) -> int:
    """The support at ``position`` in the level of ``size`` indices,
    packed: its lowest index a is the last whose start is at most the
    position, and the rest of it sits at the same place among the
    supports above a one level down."""
    support = 0
    for j in range(size, 0, -1):
        a = bisect_right(starts[j], position) - 1
        support |= 1 << a
        position += starts[j - 1][a + 1] - starts[j][a]
    return support


# ---------- text format ----------


def _row_mask(line: str, width: int, label: str) -> int:
    """Mask of a text row of exactly ``width`` characters from {0,1},
    coordinate 1 first (mask 0 at width 0); FormatError naming ``label``
    for any other line.  ``strip`` leaves nothing exactly when every
    character is 0 or 1, so the sign, space or underscore that ``int``
    would take is refused too."""
    if len(line) != width or line.strip("01"):
        raise FormatError(f"malformed {label} {line!r}")
    return int(line[::-1], 2) if width else 0


def _is_decimal(field: str) -> bool:
    """Whether ``field`` is a nonempty run of ASCII digits, the one form
    of a number in the text formats; ``int`` would also take a sign,
    ``_`` between digits, surrounding spaces and non-ASCII digits."""
    return field.isascii() and field.isdecimal()


def _decimal_fields(line: str, count: int, label: str) -> list[int]:
    """The ``count`` numbers of ``line``, one space apart, each
    ``_is_decimal``; FormatError naming ``label`` for any other line."""
    fields = line.split(" ")
    try:
        if len(fields) == count and all(map(_is_decimal, fields)):
            return list(map(int, fields))
    except ValueError:  # more digits than ``int`` converts
        pass
    raise FormatError(f"malformed {label} {line!r}")


def parse_matrix(text: str) -> BitMatrix:
    if not text.endswith("\n"):
        raise FormatError("matrix text must end with a newline")
    lines = text.split("\n")[:-1]
    rows, cols = _decimal_fields(lines[0], 2, "header line")
    if len(lines) != rows + 1:
        raise FormatError(f"expected {rows} row lines, found {len(lines) - 1}")
    masks = tuple(_row_mask(ln, cols, "row line") for ln in lines[1:])
    return BitMatrix(rows, cols, masks)


def format_vector(v: BitVector) -> str:
    return f"1 {v.length}\n{v.to01()}\n"


def parse_vector(text: str) -> BitVector:
    m = parse_matrix(text)
    if m.rows != 1:
        raise FormatError(f"expected a single-row vector, found {m.rows} rows")
    return BitVector(m.cols, m.row_masks[0])
