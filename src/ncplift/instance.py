"""Sparse nearest-codeword instances in three equivalent views.

A generator-view instance asks for a sparse offset: given G, z and k,
find x with sparsity at most alpha*k such that z xor x lies in the
column span of G.  The syndrome view carries a parity-check matrix H
and target t and asks for sparse x with H x = t.  The labeled-set view
reads the rows of H as sample points labeled by the entries of t, so
that a parity chi_S is consistent with the labels exactly when the
indicator vector of S solves the syndrome system.

Seeded generation draws all randomness from Python's random.Random
(MT19937) through getrandbits only, plus Floyd's subset sampling for
the planted support, so equal seeds give byte-identical instances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
# Not called here: the benchmark's tracer (bench/spans.py) wraps
# ``instance.combinations`` to count brute-force supports, and a traced
# run fails when the name is missing.
from itertools import combinations  # noqa: F401
from random import Random

from .f2 import (
    BitMatrix,
    BitVector,
    FormatError,
    _decimal_fields,
    _row_mask,
    dual_basis,
    eliminate,
    mat_vec,
    rank,
    sparse_xor_search,
)

__all__ = [
    "UnsatisfiableInstanceError",
    "NcpInstance",
    "SyndromeInstance",
    "LabeledSet",
    "generator_to_syndrome",
    "syndrome_to_labeled_set",
    "normalize_syndrome",
    "brute_force_nearest",
    "random_planted",
    "write_syndrome_instance",
    "read_syndrome_instance",
    "read_generator_instance",
    "load_instance",
]


class UnsatisfiableInstanceError(ValueError):
    """The linear system H x = t has no solution at all: a dependent row
    carries a label inconsistent with the combination producing it."""


@dataclass(frozen=True)
class NcpInstance:
    """Generator view: code is the column span of g, target point is z."""

    g: BitMatrix
    z: BitVector
    k: int
    alpha: Fraction

    def __post_init__(self) -> None:
        if self.z.length != self.g.rows:
            raise ValueError("target length must equal the code length")
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if self.alpha < 1:
            raise ValueError("approximation factor must be >= 1")


@dataclass(frozen=True)
class SyndromeInstance:
    """Syndrome view: seek sparse x with h x = t."""

    h: BitMatrix
    t: BitVector
    k: int
    alpha: Fraction

    def __post_init__(self) -> None:
        if self.t.length != self.h.rows:
            raise ValueError("syndrome length must equal the row count")
        if self.k < 0:
            raise ValueError("k must be >= 0")
        if self.alpha < 1:
            raise ValueError("approximation factor must be >= 1")

    @property
    def n(self) -> int:
        return self.h.cols

    @property
    def m(self) -> int:
        return self.h.rows


@dataclass(frozen=True)
class LabeledSet:
    """Finite list of labeled points; the consistency view of a system.

    Points coming out of ``syndrome_to_labeled_set`` on a normalized
    instance are pairwise distinct and linearly independent; every set
    is only checked structurally here, and span construction checks
    independence.
    """

    points: tuple[BitVector, ...]
    labels: tuple[int, ...]
    length: int

    def __post_init__(self) -> None:
        if len(self.points) != len(self.labels):
            raise ValueError("points and labels must align")
        for p in self.points:
            if p.length != self.length:
                raise ValueError("all points must share the stated length")
        for b in self.labels:
            if b not in (0, 1):
                raise ValueError("labels must be 0 or 1")

    @property
    def m(self) -> int:
        return len(self.points)


def generator_to_syndrome(inst: NcpInstance) -> SyndromeInstance:
    """Equivalent syndrome view of a generator-view instance.

    H is the dual basis of the code, t = H z, so z xor x is a codeword
    exactly when H x = t.
    """
    h = dual_basis(inst.g)
    t = mat_vec(h, inst.z)
    return SyndromeInstance(h, t, inst.k, inst.alpha)


def syndrome_to_labeled_set(inst: SyndromeInstance) -> LabeledSet:
    """Rows of H as points labeled by the entries of t.

    Does not check that the rows are independent, which the span
    requires: run ``normalize_syndrome`` first when in doubt, and
    ``span.SpanOracle`` refuses dependent points.
    """
    return LabeledSet(
        tuple(inst.h.row_vectors()),
        tuple(inst.t),
        inst.h.cols,
    )


def normalize_syndrome(inst: SyndromeInstance) -> SyndromeInstance:
    """Drop dependent rows, checking their labels stay consistent.

    A dependent row equals a combination of retained rows; its label
    must equal the same combination of retained labels, otherwise no
    assignment satisfies the system at all.

    Raises:
        UnsatisfiableInstanceError: if a dropped label is inconsistent.
    """
    elim = eliminate(inst.h.row_masks)
    if not elim.kernel:
        return inst
    # Each kernel vector is a dependent row (its highest bit) together
    # with the earlier retained rows that XOR to it, so the labels agree
    # exactly when they XOR to zero over the same rows.
    for combo in elim.kernel:
        if (combo & inst.t.mask).bit_count() & 1:
            raise UnsatisfiableInstanceError(
                f"row {combo.bit_length()} is a combination of earlier rows but its "
                "label disagrees; the system has no solution"
            )
    kept = [combo.bit_length() - 1 for combo in elim.combos]
    h = BitMatrix(len(kept), inst.h.cols, tuple(inst.h.row_masks[i] for i in kept))
    t = BitVector.from_bits(inst.t.mask >> i & 1 for i in kept)
    return SyndromeInstance(h, t, inst.k, inst.alpha)


def brute_force_nearest(inst: SyndromeInstance, k_max: int) -> BitVector | None:
    """Sparsest solution of H x = t within the sparsity cap, or None.

    Supports are ordered by ascending size, each size in lexicographic
    order, and the first solution is returned, so ties break toward the
    lexicographically smallest support.  The search runs over the
    columns of H (``f2.sparse_xor_search``) and takes the cheaper of two
    exact methods: meeting in the middle, about C(n, ceil(s/2)) steps
    per size s, each a set lookup at C level, with one probe per prefix
    of the lower halves (one for s = 1 or an even s, and n - s + 1 for
    an odd s > 1, at the benchmark's n = 64, k = 5), or walking the solution coset x + ker H, 2**(n - rank H)
    steps for any cap.  A cap that makes both estimates pass
    ``f2.SEARCH_MAX_COST`` is refused before the search starts.

    Raises:
        ValueError: when ``k_max`` is negative or exceeds n, or when both
            cost estimates pass ``f2.SEARCH_MAX_COST``.
    """
    n = inst.h.cols
    if k_max < 0:
        raise ValueError(f"sparsity cap must be >= 0, got {k_max}")
    if k_max > n:
        raise ValueError("sparsity cap exceeds the number of coordinates")
    support = sparse_xor_search(inst.h.column_masks(), inst.t.mask, k_max)
    return None if support is None else BitVector(n, support)


def _randbelow(rng: Random, n: int) -> int:
    """Uniform integer in range(n) from getrandbits via rejection."""
    bits = n.bit_length()
    r = rng.getrandbits(bits)
    while r >= n:
        r = rng.getrandbits(bits)
    return r


def _sample_support(rng: Random, n: int, k: int) -> list[int]:
    """Floyd's algorithm: uniform k-subset of range(n), 0-based."""
    chosen: set[int] = set()
    for j in range(n - k, n):
        t = _randbelow(rng, j + 1)
        chosen.add(t if t not in chosen else j)
    return sorted(chosen)


def _independent_rows(rng: Random, n: int, m: int) -> BitMatrix:
    """An ``m`` x ``n`` matrix uniform over the full-rank choices: the
    whole draw is repeated until its rows are independent.  ``rank`` is
    read from this module, where the benchmark's tracer counts it."""
    while True:
        h = BitMatrix(m, n, tuple(rng.getrandbits(n) for _ in range(m)))
        if rank(h) == m:
            return h


def random_planted(n: int, m: int, k: int, seed: int) -> tuple[SyndromeInstance, BitVector]:
    """Planted syndrome instance: uniform independent-row H and a hidden
    uniform weight-k vector x with t = H x.

    H comes from ``_independent_rows``.  Determinism: a fixed seed
    yields a bit-identical instance (MT19937 through getrandbits).  A
    negative seed is refused: ``Random`` seeds by its absolute value.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if not 0 <= m <= n:
        raise ValueError("need 0 <= m <= n for independent rows")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    if n == 0:
        raise ValueError("n must be >= 1")
    rng = Random(seed)
    h = _independent_rows(rng, n, m)
    support = _sample_support(rng, n, k)
    x = BitVector.from_support((j + 1 for j in support), n)
    t = mat_vec(h, x)
    return SyndromeInstance(h, t, k, Fraction(1)), x


# ---------- instance files ----------

_SD_HEADER = "ncpsd v1"
_GEN_HEADER = "ncpgen v1"


def _read_instance(text: str, header: str, what: str, vector: str, make):
    """Parse one view: the header, ``rows cols k num den`` in ASCII
    decimal, the matrix rows, then a vector line of one bit per row;
    ``make(matrix, vector, k, alpha)`` builds the instance."""
    if not text.endswith("\n"):
        raise FormatError("instance text must end with a newline")
    lines = text.split("\n")[:-1]
    if lines[0] != header:
        raise FormatError(f"expected header {header!r}")
    if len(lines) < 2:
        raise FormatError("missing parameter line")
    rows, cols, k, num, den = _decimal_fields(lines[1], 5, f"{what} parameter line")
    if den == 0:
        raise FormatError("alpha denominator must be positive")
    if len(lines) != 2 + rows + 1:
        raise FormatError(f"expected {rows} matrix rows plus a {vector} line")
    masks = tuple(_row_mask(ln, cols, "matrix row") for ln in lines[2:-1])
    point = _row_mask(lines[-1], rows, f"{vector} line")
    try:
        return make(BitMatrix(rows, cols, masks), BitVector(rows, point), k, Fraction(num, den))
    except ValueError as e:
        raise FormatError(str(e)) from e


def write_syndrome_instance(inst: SyndromeInstance) -> str:
    alpha = inst.alpha
    lines = [_SD_HEADER, f"{inst.m} {inst.n} {inst.k} {alpha.numerator} {alpha.denominator}"]
    lines.extend(v.to01() for v in inst.h.row_vectors())
    lines.append(inst.t.to01())
    return "\n".join(lines) + "\n"


def read_syndrome_instance(text: str) -> SyndromeInstance:
    return _read_instance(text, _SD_HEADER, "syndrome", "target", SyndromeInstance)


def read_generator_instance(text: str) -> NcpInstance:
    return _read_instance(text, _GEN_HEADER, "generator", "point", NcpInstance)


def load_instance(text: str) -> SyndromeInstance:
    """Read either on-disk view and return the syndrome view."""
    first = text.split("\n", 1)[0]
    if first == _SD_HEADER:
        return read_syndrome_instance(text)
    if first == _GEN_HEADER:
        return generator_to_syndrome(read_generator_instance(text))
    raise FormatError(f"unknown instance header {first!r}")
