"""Bit-packed GF(2) linear algebra: vectors, matrices, rank, dual bases."""

import itertools
import math
import random
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncplift.f2 import (
    BitMatrix,
    BitVector,
    FormatError,
    bit_column,
    dual_basis,
    eliminate,
    format_vector,
    mat_vec,
    parse_matrix,
    parse_vector,
    rank,
    sparse_xor_search,
)
from ncplift import f2

from helpers import cpu_limit, identity, matrix


def random_matrix(rng, rows, cols):
    return BitMatrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))


def column_span(mat):
    """All vectors G @ c for c ranging over F_2^cols, as a set of masks."""
    cols = mat.column_masks()
    out = set()
    for combo in range(1 << mat.cols):
        acc = 0
        for j in range(mat.cols):
            if combo >> j & 1:
                acc ^= cols[j]
        out.add(acc)
    return out


# ---------------------------------------------------------------- vectors


def test_bitvector_from01_round_trip():
    v = BitVector.from01("10110")
    assert v.to01() == "10110"
    assert v.length == 5
    assert v.mask == 0b01101
    assert v.support() == (1, 3, 4)
    assert v.sparsity == 3
    assert BitVector.from01("") == BitVector(0, 0)
    # int(..., 2) would take a sign, spaces or an underscore.
    for bad in ("0120", "+1", "-1", " 10", "10 ", "1_0", "0b1"):
        with pytest.raises(FormatError):
            BitVector.from01(bad)


def per_bit(v):
    """Reference for ``to01`` and iteration: bit i of byte i // 8 of the
    mask's little-endian bytes, one coordinate at a time."""
    data = v.mask.to_bytes((v.length + 7) // 8, "little")
    return [data[i // 8] >> (i % 8) & 1 for i in range(v.length)]


@pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 100_000])
def test_bitvector_to01_and_iteration_match_the_per_bit_loop(length):
    rng = random.Random(length)
    for mask in (0, (1 << length) - 1, rng.getrandbits(length) if length else 0):
        v = BitVector(length, mask)
        bits = per_bit(v)
        assert list(v) == bits
        assert v.to01() == "".join(map(str, bits))
        assert BitVector.from01(v.to01()) == v


def test_bitvector_zero_and_support_constructors():
    z = BitVector(4, 0)
    assert z.to01() == "0000"
    assert z.sparsity == 0
    v = BitVector.from_support((2, 4), 4)
    assert v.to01() == "0101"
    assert BitVector.from_support((), 4) == z


def test_bitvector_xor():
    a = BitVector.from01("1100")
    b = BitVector.from01("1010")
    assert (a ^ b).to01() == "0110"
    with pytest.raises(ValueError):
        a ^ BitVector.from01("101")


def test_bitvector_rejects_out_of_range():
    with pytest.raises(ValueError):
        BitVector.from_support((0,), 3)
    with pytest.raises(ValueError):
        BitVector.from_support((4,), 3)
    with pytest.raises(ValueError):
        BitVector(3, 1 << 3)


def test_bitvector_iter_matches_bits():
    v = BitVector.from01("1101")
    assert list(v) == [1, 1, 0, 1]
    assert len(v) == 4
    assert str(v) == "1101"


@given(st.integers(1, 30), st.data())
def test_xor_is_group_operation(n, data):
    bits = st.integers(0, (1 << n) - 1)
    a = BitVector(n, data.draw(bits))
    b = BitVector(n, data.draw(bits))
    assert (a ^ b) == (b ^ a)
    assert (a ^ b ^ b) == a
    assert (a ^ BitVector(n, 0)) == a


def test_bit_column_doubling():
    # Bit e of bit_column(i, m) is bit i of e, so column i alternates in
    # blocks of 2^i over the 2^m table entries.
    assert bit_column(0, 3) == 0b10101010
    assert bit_column(1, 3) == 0b11001100
    assert bit_column(2, 3) == 0b11110000
    for i in range(4):
        expect = sum(1 << e for e in range(16) if e >> i & 1)
        assert bit_column(i, 4) == expect


# ---------------------------------------------------------------- matrices


def test_matrix_constructors_and_entry():
    m = matrix("10", "01", "11")
    assert m.rows == 3 and m.cols == 2
    # Entry (i, j) is bit j - 1 of row mask i - 1.
    assert m.row_masks == (0b01, 0b10, 0b11)
    assert [v.to01() for v in m.row_vectors()] == ["10", "01", "11"]


def column_masks_by_bits(m):
    """Oracle: set each column bit from its row, one set bit at a time."""
    cols = [0] * m.cols
    for i, rm in enumerate(m.row_masks):
        while rm:
            low = rm & -rm
            cols[low.bit_length() - 1] |= 1 << i
            rm ^= low
    return cols


@st.composite
def matrices(draw):
    rows = draw(st.integers(0, 70))
    cols = draw(st.integers(0, 70))
    masks = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return BitMatrix(rows, cols, tuple(masks))


@given(matrices())
@settings(max_examples=300, deadline=None)
def test_column_masks_match_the_bit_loop(m):
    cols = m.column_masks()
    assert cols == column_masks_by_bits(m)
    assert len(cols) == m.cols


def column_masks_by_zip(m):
    """Oracle: spell each row in binary, last row first, and read the
    columns down the strings with zip."""
    if not m.rows or not m.cols:
        return [0] * m.cols
    spelled = [format(r, f"0{m.cols}b") for r in reversed(m.row_masks)]
    return [int("".join(chars), 2) for chars in zip(*spelled)][::-1]


@pytest.mark.parametrize(
    "rows, cols", [(0, 3), (3, 0), (1, 1), (12, 14), (48, 64), (2000, 25), (2000, 400)]
)
def test_column_masks_match_the_zip_transpose(rows, cols):
    rng = random.Random(rows * 1000 + cols)
    for masks in (
        [rng.getrandbits(cols) for _ in range(rows)],
        [(1 << cols) - 1] * rows,
        [1 << rng.randrange(cols) if cols else 0 for _ in range(rows)],
    ):
        m = BitMatrix(rows, cols, tuple(masks))
        assert m.column_masks() == column_masks_by_zip(m)


def test_column_masks_of_empty_shapes():
    assert BitMatrix(0, 0, ()).column_masks() == []
    assert BitMatrix(0, 3, ()).column_masks() == [0, 0, 0]
    assert BitMatrix(4, 0, (0,) * 4).column_masks() == []


def test_matrix_rejects_ragged_rows():
    with pytest.raises(ValueError):
        BitMatrix(2, 2, (0b01, 0b110))


def test_mat_vec_by_hand():
    h = matrix("110", "011")
    x = BitVector.from01("110")
    y = mat_vec(h, x)
    assert y.length == 2
    assert y.to01() == "01"


@given(st.integers(1, 8), st.integers(1, 8), st.data())
@settings(max_examples=200)
def test_mat_vec_is_linear(r, c, data):
    m = BitMatrix(
        r, c, tuple(data.draw(st.integers(0, (1 << c) - 1)) for _ in range(r))
    )
    x = BitVector(c, data.draw(st.integers(0, (1 << c) - 1)))
    y = BitVector(c, data.draw(st.integers(0, (1 << c) - 1)))
    assert mat_vec(m, x ^ y) == mat_vec(m, x) ^ mat_vec(m, y)
    assert mat_vec(m, BitVector(c, 0)) == BitVector(r, 0)


# ---------------------------------------------------------------- rank, elimination


def test_rank_small_cases():
    assert rank(identity(4)) == 4
    assert rank(matrix("000", "000", "000")) == 0
    assert rank(matrix("11", "11")) == 1


def xor_of(vectors, combo):
    """XOR of the vectors whose bits are set in ``combo``."""
    acc = 0
    for j, v in enumerate(vectors):
        if combo >> j & 1:
            acc ^= v
    return acc


def test_eliminate_tracks_combinations_exhaustively():
    # Every list of at most 4 vectors of width <= 3.
    for count in range(5):
        for vectors in itertools.product(range(8), repeat=count):
            elim = eliminate(vectors)
            assert len(elim.basis) + len(elim.kernel) == count
            assert len(elim.basis) == rank(BitMatrix(count, 3, vectors))
            assert len({b.bit_length() for b in elim.basis}) == len(elim.basis)
            for b, combo in zip(elim.basis, elim.combos):
                assert combo.bit_length() - 1 not in {k.bit_length() - 1 for k in elim.kernel}
                assert xor_of(vectors, combo) == b
            for combo in elim.kernel:
                assert xor_of(vectors, combo) == 0
            assert rank(BitMatrix(len(elim.kernel), max(count, 1), elim.kernel)) == len(elim.kernel)
            for v in range(8):
                residue, combo = elim.reduce(v)
                in_span = any(xor_of(vectors, c) == v for c in range(1 << count))
                assert (residue == 0) == in_span
                if in_span:
                    assert xor_of(vectors, combo) == v


def lowest_bit_eliminate(vectors):
    """Reference for ``eliminate``: each input is tested against the
    lowest-bit pivot of every earlier basis vector in turn, and every
    basis vector is clear of the pivots before it.  Returns the basis,
    combinations and kernel, and the reduction against that basis."""
    basis, pivots, combos, kernel = [], [], [], []

    def reduce(v, combo=0):
        for b, piv, c in zip(basis, pivots, combos):
            if v & piv:
                v ^= b
                combo ^= c
        return v, combo

    for j, v in enumerate(vectors):
        v, combo = reduce(v, 1 << j)
        if v:
            basis.append(v)
            pivots.append(v & -v)
            combos.append(combo)
        else:
            kernel.append(combo)
    return basis, combos, kernel, reduce


def assert_eliminate_matches_the_lowest_bit_loop(vectors, probes):
    """Rank, kernel, the input each basis vector reduces, and the
    residue and the combination of every probe in the span agree."""
    elim = eliminate(vectors)
    basis, combos, kernel, reduce = lowest_bit_eliminate(vectors)
    assert len(elim.basis) == len(basis)
    assert elim.kernel == tuple(kernel)
    assert [c.bit_length() for c in elim.combos] == [c.bit_length() for c in combos]
    for v in probes:
        residue, combo = elim.reduce(v)
        old_residue, old_combo = reduce(v)
        assert (residue == 0) == (old_residue == 0)
        if not residue:
            assert combo == old_combo
            assert xor_of(vectors, combo) == v


def test_eliminate_matches_the_lowest_bit_loop_exhaustively():
    for count in range(5):
        for vectors in itertools.product(range(8), repeat=count):
            assert_eliminate_matches_the_lowest_bit_loop(vectors, range(8))


@pytest.mark.parametrize("seed", range(40))
def test_eliminate_matches_the_lowest_bit_loop_on_random_inputs(seed):
    # Up to 64 vectors of up to 80 bits, drawn from a random subspace of
    # up to that width so that some inputs depend on earlier ones, and
    # probes in the span (XORs of inputs) and mostly outside it.
    rng = random.Random(seed)
    count, width = rng.randint(1, 64), rng.randint(1, 80)
    gens = [rng.getrandbits(width) for _ in range(rng.randint(1, width))]
    vectors = [xor_of(gens, rng.getrandbits(len(gens))) for _ in range(count)]
    probes = [xor_of(vectors, rng.getrandbits(count)) for _ in range(20)]
    probes += [rng.getrandbits(width) for _ in range(20)]
    assert_eliminate_matches_the_lowest_bit_loop(vectors, probes)


def two_xor_eliminate(vectors):
    """Reference for ``eliminate``: the same pivot lookup with each
    vector and its combination kept apart, two XORs per step.  Returns
    its basis, combinations and kernel, and the reduction against its
    basis."""
    by_top = {}

    def reduce(v, combo=0):
        while (hit := by_top.get(v.bit_length())) is not None:
            v ^= hit[0]
            combo ^= hit[1]
        return v, combo

    kernel = []
    for j, v in enumerate(vectors):
        v, combo = reduce(v, 1 << j)
        if v:
            by_top[v.bit_length()] = v, combo
        else:
            kernel.append(combo)
    basis = tuple(v for v, _ in by_top.values())
    combos = tuple(c for _, c in by_top.values())
    return SimpleNamespace(basis=basis, combos=combos, kernel=tuple(kernel)), reduce


def assert_eliminate_matches_the_two_xor_loop(vectors, probes):
    """Every field of the elimination, and the residue and combination
    of every probe, equal the two-XOR loop's; ``eliminate`` gets a
    one-shot generator, as ``gadget.solution_unions`` passes it."""
    vectors = list(vectors)
    elim = eliminate(v for v in vectors)
    expected, reduce = two_xor_eliminate(vectors)
    assert elim.basis == expected.basis
    assert elim.combos == expected.combos
    assert elim.kernel == expected.kernel
    for v in probes:
        assert elim.reduce(v) == reduce(v)


@pytest.mark.parametrize(
    "vectors",
    [[], [0], [0, 0, 0], [5, 5], [1, 2, 3], [6, 0, 6, 3, 5], [1, 1, 2, 2, 3, 3, 1 << 40], list(range(16))],
    ids=["empty", "zero", "zeros", "duplicate", "dependent", "mixed", "pairs", "more-than-bits"],
)
def test_eliminate_matches_the_two_xor_loop_on_edge_inputs(vectors):
    width = max(map(int.bit_length, vectors), default=0) + 2
    assert_eliminate_matches_the_two_xor_loop(vectors, range(1 << min(width, 8)))


@pytest.mark.parametrize("seed", range(30))
def test_eliminate_matches_the_two_xor_loop_on_random_inputs(seed):
    # Widths from 1 to 2000 bits, from fewer inputs than bits to several
    # times more, drawn from a random subspace so that most are
    # rank-deficient, with repeated and zero inputs mixed in.
    rng = random.Random(seed)
    width = rng.choice([1, 3, 8, 24, 64, 200, 2000])
    count = rng.randint(0, min(3 * width, 120))
    gens = [rng.getrandbits(width) for _ in range(rng.randint(1, min(width, 100)))]
    vectors = [xor_of(gens, rng.getrandbits(len(gens))) for _ in range(count)]
    for _ in range(count // 8):
        vectors.insert(rng.randint(0, len(vectors)), rng.choice([0, *vectors]))
    probes = [xor_of(vectors, rng.getrandbits(len(vectors))) for _ in range(20)]
    probes += [rng.getrandbits(width) for _ in range(20)]
    assert_eliminate_matches_the_two_xor_loop(vectors, probes)


# ---------------------------------------------------------------- dual basis


def test_dual_basis_repetition_code():
    g = matrix("1", "1")  # single column (1, 1)
    h = dual_basis(g)
    assert h.rows == 1
    assert h.row_masks == (0b11,)


def test_dual_basis_of_identity_is_empty():
    for n in range(1, 5):
        h = dual_basis(identity(n))
        assert h.rows == 0
        assert h.cols == n


def test_dual_basis_fixed_5x2_checked_over_all_vectors():
    g = matrix("10", "01", "11", "10", "00")
    assert rank(g) == 2
    h = dual_basis(g)
    assert h.rows == 3  # 5 - rank
    assert rank(h) == 3
    # One vector per row that depends on the rows before it (rows 3, 4
    # and 5), in that order, each with no other dependent row in it.
    assert [v.to01() for v in h.row_vectors()] == ["11100", "10010", "00001"]
    span = column_span(g)
    for xm in range(1 << 5):
        x = BitVector(5, xm)
        in_kernel = mat_vec(h, x).mask == 0
        assert in_kernel == (xm in span)


def test_dual_basis_characterizes_column_span():
    rng = random.Random(23)
    for _ in range(60):
        g = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6))
        h = dual_basis(g)
        assert h.rows == g.rows - rank(g)
        assert rank(h) == h.rows
        span = column_span(g)
        for xm in range(1 << g.rows):
            x = BitVector(g.rows, xm)
            assert (mat_vec(h, x).mask == 0) == (xm in span)


# ---------------------------------------------------------------- text formats


def test_matrix_text_round_trip():
    m = matrix("10", "01")
    assert parse_matrix("2 2\n10\n01\n") == m


def test_zero_row_matrix_round_trip():
    assert parse_matrix("0 4\n") == BitMatrix(0, 4, ())


def test_vector_text_round_trip():
    v = BitVector.from01("0110")
    assert format_vector(v) == "1 4\n0110\n"
    assert parse_vector(format_vector(v)) == v


def test_parse_matrix_rejections():
    good = "2 2\n10\n01\n"
    assert parse_matrix(good) is not None
    for bad in (
        "2 2\n10\n01",  # missing final newline
        "2 2\n10\n011\n",  # ragged row
        "2 2\n10\n",  # too few rows
        "2 2\n10\n01\n11\n",  # too many rows
        "2\n10\n01\n",  # malformed header
        "2 2\n10\n0x\n",  # non-binary digit
        "2 2\n10\n+1\n",  # a sign, which int() would take
        "-1 2\n",  # negative dimension
        "+1 0_2\n10\n",  # a sign and an underscore in the header, which int() would take
        "1\t 2\n10\n",  # a tab, which int() would strip
        "\u0661 2\n10\n",  # a non-ASCII digit, which int() would read
    ):
        with pytest.raises(FormatError):
            parse_matrix(bad)


def test_parse_vector_rejections():
    for bad in ("1 4\n0110", "1 4\n011\n", "x 4\n0110\n", "1 4\n0120\n", ""):
        with pytest.raises(FormatError):
            parse_vector(bad)
    with pytest.raises(FormatError):
        parse_vector("2 2\n10\n01\n")  # two rows is not a vector


def test_unchecked_vector_equals_the_checked_one():
    for length, mask in ((0, 0), (5, 0b10110), (70, 1 << 69 | 1)):
        fast, checked = BitVector._unchecked(length, mask), BitVector(length, mask)
        assert fast == checked and hash(fast) == hash(checked)
        assert (fast.length, fast.mask, fast.to01()) == (length, mask, checked.to01())
        assert vars(fast) == vars(checked)
        with pytest.raises(AttributeError):
            fast.mask = 0


# ---------------------------------------------------------------- sparse XOR search


def linear_xor_search(columns, target, max_size):
    """Reference scan: the first support in (size, lex) order whose
    column XOR is the target, packed, or None."""
    for size in range(max_size + 1):
        for combo in itertools.combinations(range(len(columns)), size):
            acc = 0
            for j in combo:
                acc ^= columns[j]
            if acc == target:
                return sum(1 << j for j in combo)
    return None


def on_path(path):
    """Force ``sparse_xor_search`` onto one path: the coset walk costs
    nothing, or never wins."""
    cost = {"coset": 0, "mitm": math.inf}[path]
    return mock.patch.object(f2, "_coset_cost", lambda *args: cost)


@st.composite
def xor_problems(draw):
    """Columns, a target and a size cap.

    Wide columns draw their low 64 bits from a pool of at most four
    values and differ only above them, so most XORs that agree in their
    low 64 bits differ above them, and a key that dropped the high bits
    would make false hits.  Narrow columns repeat XORs often, so ties
    between supports are common.
    The target is the XOR of a drawn support (usually reachable) or a
    drawn value.
    """
    n = draw(st.integers(0, 14))
    if draw(st.booleans()):
        pool = draw(st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=4))
        columns = [
            draw(st.sampled_from(pool)) | draw(st.integers(0, 7)) << 64 for _ in range(n)
        ]
        width = 67
    else:
        width = draw(st.integers(1, 6))
        columns = [draw(st.integers(0, (1 << width) - 1)) for _ in range(n)]
    if draw(st.booleans()):
        picks = draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=6)) if n else []
        target = 0
        for j in set(picks):
            target ^= columns[j]
    else:
        target = draw(st.integers(0, (1 << width) - 1))
    return columns, target, draw(st.integers(0, min(n, 6)))


@given(xor_problems())
@settings(max_examples=300, deadline=None)
def test_sparse_xor_search_matches_linear_scan(problem):
    columns, target, max_size = problem
    assert sparse_xor_search(columns, target, max_size) == linear_xor_search(
        columns, target, max_size
    )


@pytest.mark.parametrize("path", ["coset", "mitm"])
@given(problem=xor_problems())
@settings(max_examples=200, deadline=None)
def test_sparse_xor_search_matches_linear_scan_on_each_path(path, problem):
    columns, target, max_size = problem
    with on_path(path):
        got = sparse_xor_search(columns, target, max_size)
    assert got == linear_xor_search(columns, target, max_size)


@given(xor_problems(), st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_sparse_xor_search_past_the_table_cap(problem, cap):
    # A small cap makes the larger sizes split lower than s // 2, down
    # to the plain scan; the answers must not change.
    columns, target, max_size = problem
    want = linear_xor_search(columns, target, max_size)
    with mock.patch.object(f2, "XOR_TABLE_MAX_ENTRIES", cap):
        with on_path("mitm"):
            assert sparse_xor_search(columns, target, max_size) == want
        if target:
            assert f2._search(columns, target, max_size) == want


def test_levels_and_unranking_follow_combinations():
    # Over unit columns each XOR is its own support, so level j lists
    # the supports of j indices; they, the start lists and the unranked
    # positions must follow itertools.combinations order.
    for n in range(13):
        levels, starts = f2._levels([1 << j for j in range(n)], n)
        for size in range(n + 1):
            combos = list(itertools.combinations(range(n), size))
            want = [sum(1 << j for j in combo) for combo in combos]
            assert levels[size] == want
            assert [f2._unrank(starts, size, r) for r in range(len(want))] == want
            lowest = [combo[0] if combo else n for combo in combos]
            assert starts[size] == [sum(low < a for low in lowest) for a in range(n + 1)]


def test_sparse_xor_search_respects_the_table_cap():
    # With the cap at 100 entries a size-4 search over 60 columns must
    # split 3 + 1, not 2 + 2: tracemalloc measured a 195 KiB peak with
    # the C(60, 2) = 1770-entry table and 9 KiB with the 60-entry one.
    columns = [1 << j for j in range(60)]
    with on_path("mitm"), mock.patch.object(f2, "XOR_TABLE_MAX_ENTRIES", 100):
        tracemalloc.start()
        try:
            assert sparse_xor_search(columns, (1 << 60) - 1, 4) is None
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peak < 64 * 1024


def test_mitm_work_is_its_estimate():
    # A miss probes each lower half that leaves room for an upper half
    # above it once, and nothing more, so the probes and the
    # table entries add up to _mitm_cost, the estimate the refusal
    # checks; and it takes one Python step per prefix that leaves such
    # room, C(n - h - g, s - h - g) a size with g = max(h, 1).  Over 30
    # columns of rank 3 at a cap of 30, prefixes over all of range(n)
    # would be about 30 times the probes.
    class Table(set):
        probes = calls = 0

        def isdisjoint(self, other):
            other = list(other)
            Table.probes += len(other)
            Table.calls += 1
            return super().isdisjoint(other)

    rng = random.Random(5)
    shapes = ((30, 3, 12, f2.XOR_TABLE_MAX_ENTRIES), (16, 3, 16, f2.XOR_TABLE_MAX_ENTRIES), (13, 8, 9, 20), (9, 64, 6, 1))
    for n, width, max_size, cap in shapes:
        columns = [rng.getrandbits(width) for _ in range(n)]
        Table.probes = Table.calls = 0
        with mock.patch.object(f2, "XOR_TABLE_MAX_ENTRIES", cap), mock.patch.object(f2, "set", Table, create=True):
            assert f2._search(columns, 1 << width, max_size) is None
            splits = list(f2._splits(n, max_size))
            tables = sum(math.comb(n, half) for half in {half for _, half in splits} if half)
            assert Table.probes + tables == f2._mitm_cost(n, max_size) <= f2.SEARCH_MAX_COST
        prefixes = sum(math.comb(n - half - max(half, 1), size - half - max(half, 1)) for size, half in splits)
        assert Table.calls == prefixes


def test_sparse_xor_search_without_a_live_target_builds_nothing():
    # Eight independent columns of 200 bits and twelve sums of them: the
    # coset walk of a kernel of dimension 12 costs more than meeting in
    # the middle up to size 3, and the target lies outside the span, so
    # the elimination shows it has no fit and no level is built.
    rng = random.Random(3)
    basis = [rng.getrandbits(200) for _ in range(8)]
    columns = basis + [basis[rng.randrange(8)] ^ basis[rng.randrange(8)] for _ in range(12)]
    with mock.patch.object(f2, "_levels", side_effect=AssertionError):
        assert sparse_xor_search(columns, 1 << 200, 3) is None


def test_sparse_xor_search_rejects_fingerprint_collisions():
    # Columns 0 and 1 agree in their low 64 bits, so {0, 2} has the
    # fingerprint of the target, and comes first, without being a
    # solution; {1, 2} is the real one.
    high = 1 << 64
    columns = [1, 1 | high, 2]
    with on_path("mitm"):
        assert sparse_xor_search(columns, 3 | high, 3) == 0b110
        assert sparse_xor_search(columns, 3 | high << 1, 3) is None


def test_sparse_xor_search_order_within_a_size():
    # Columns 0, 1, 2, 3, 4 are independent and column 5 is 0 ^ 2 ^ 3,
    # so the target has exactly the weight-4 solutions {1, 2, 3, 4} and
    # {0, 1, 4, 5}; the second is lexicographically first.
    columns = [1, 8, 2, 4, 16, 7]
    for path in ("coset", "mitm"):
        with on_path(path):
            assert sparse_xor_search(columns, 30, 3) is None
            assert sparse_xor_search(columns, 30, 4) == 0b110011


def test_sparse_xor_search_duplicate_columns_share_table_keys():
    # Columns 0-2 are equal, and so are 3-4, so one XOR of two columns
    # is made by {0, 3} and {0, 4} and, later in lex order, by {1, 3},
    # {1, 4}, {2, 3}, {2, 4}; the upper half the search takes for it is
    # the lexicographically first.  Two-index upper halves over seven
    # columns take their lower part from the levels over columns 0-4.
    # The wide copy repeats each column above its low 64 bits, so that
    # XORs equal there still come from equal columns.
    a, b = 0b0011, 0b0101
    narrow = [a, a, a, b, b, 0b1000, 0b1001]
    levels, starts = f2._levels(narrow[:5], 2)
    tops = [(0, 0), (0b1000, 1 << 5), (0b1001, 1 << 6), (1, 0b1100000)]
    assert f2._first_upper(levels, starts, tops, 2, a ^ b) == 0b01001
    assert f2._first_upper(levels, starts, tops, 2, 0) == 0b00011
    assert f2._first_upper(levels, starts, tops, 2, 1) == 0b1100000
    wide = [c | c << 64 for c in narrow]
    for columns in (narrow, wide):
        for target in (a ^ b ^ 0b1001, b ^ 0b1000, 1, a, a ^ b ^ 0b1000, a ^ b ^ 1, 0b10000):
            target |= target << 64 if columns is wide else 0
            for max_size in range(6):
                assert sparse_xor_search(columns, target, max_size) == linear_xor_search(
                    columns, target, max_size
                )


def test_sparse_xor_search_false_positive_before_the_hit_in_a_row():
    # Column 7 has the low 64 bits of columns 1 ^ 2 ^ 5 and one bit
    # above them.  In the lower-half row of prefix {0}, index 1 would
    # meet the upper half {7} on the low 64 bits alone; the search has to
    # pass over it and find index 2, which meets {5}, in the same row.
    rng = random.Random(5)
    columns = [rng.getrandbits(64) for _ in range(8)]
    columns[7] = columns[1] ^ columns[2] ^ columns[5] | 1 << 64
    target = columns[0] ^ columns[2] ^ columns[5]
    with on_path("mitm"):
        got = sparse_xor_search(columns, target, 3)
    assert got == 0b100101 == linear_xor_search(columns, target, 3)


def test_sparse_xor_search_two_fits_in_one_row():
    # Size 4 over nine columns splits 2 + 2, and its one probe covers
    # every lower half.  The target's fit {0, 3, 5, 7} has the lower half
    # {0, 3}; once column 8 is the XOR of columns 1, 3, 5, 6 and 7, the
    # target also has the fit {0, 1, 6, 8}, whose lower half {0, 1} comes
    # first in the same probe and wins.
    rng = random.Random(9)
    columns = [rng.getrandbits(40) for _ in range(9)]
    target = columns[0] ^ columns[3] ^ columns[5] ^ columns[7]
    with on_path("mitm"):
        assert sparse_xor_search(columns, target, 4) == 0b10101001 == linear_xor_search(columns, target, 4)
        columns[8] = columns[1] ^ columns[3] ^ columns[5] ^ columns[6] ^ columns[7]
        assert sparse_xor_search(columns, target, 4) == 0b101000011 == linear_xor_search(columns, target, 4)


def test_sparse_xor_search_chooses_by_cost():
    # Learner-like columns: 20 wide random columns and 8 that repeat
    # XORs of them, a kernel of dimension 8, searched up to size 6.  The
    # target is also the XOR of columns 2, 10 and 14, so its first fit
    # has at most 3 indices.
    rng = random.Random(4)
    columns = [rng.getrandbits(200) for _ in range(20)]
    columns += [columns[j] ^ columns[j + 1] ^ columns[j + 5] for j in range(8)]
    target = columns[2] ^ columns[9] ^ columns[24]
    walk = mock.Mock(wraps=f2._first_in_coset)
    elim = mock.Mock(wraps=f2.eliminate)
    with mock.patch.object(f2, "_first_in_coset", walk), mock.patch.object(f2, "eliminate", elim):
        assert sparse_xor_search(columns, target, 6) == linear_xor_search(
            columns, target, 3
        )
        assert walk.call_count == 1
        # Up to size 1, meeting in the middle is the cheaper.
        assert sparse_xor_search(columns, target, 1) is None
        assert walk.call_count == 1
        # 48-bit columns over 64 leave a kernel of dimension >= 16: the
        # walk loses at size 5 without an elimination to find that out.
        narrow = [rng.getrandbits(48) for _ in range(64)]
        assert sparse_xor_search(narrow, narrow[0] ^ narrow[9], 5) == 1 | 1 << 9
        assert walk.call_count == 1
        assert elim.call_count == 2


@given(
    st.integers(1, 48),
    st.integers(1, 24),
    st.integers(0, 6),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_search_shape_refuses_only_what_the_search_refuses(n, width, max_size, seed):
    # Under a bound of 2**12 steps, a shape that _check_search_shape
    # refuses is refused by the search over any n columns of at most
    # width bits, for any nonzero target, with the same message, for
    # caps up to n and past it.
    rng = random.Random(seed)
    columns = [rng.getrandbits(width) for _ in range(n)]
    target = rng.getrandbits(width) or 1
    with mock.patch.object(f2, "SEARCH_MAX_COST", 1 << 12):
        try:
            f2._check_search_shape(n, width, max_size)
        except ValueError as refusal:
            assert str(refusal).startswith("exact search too large: ")
            with pytest.raises(ValueError, match="exact search too large: "):
                sparse_xor_search(columns, target, max_size)


def test_sparse_xor_search_answers_caps_past_the_column_count():
    # No support has more indices than there are columns, so a cap past
    # n answers as the cap n does.
    assert sparse_xor_search([1], 2, 4) is None
    assert sparse_xor_search([0], 1, 4) is None
    assert sparse_xor_search([1, 2], 4, 4) is None


@st.composite
def capped_problems(draw):
    """Up to 8 columns drawn from at most three 4-bit values, so zero
    and repeated columns are common, a target, and a cap up to n + 3."""
    pool = draw(st.lists(st.integers(0, 15), min_size=1, max_size=3))
    columns = draw(st.lists(st.sampled_from(pool), max_size=8))
    return columns, draw(st.integers(0, 15)), draw(st.integers(0, len(columns) + 3))


@given(capped_problems())
@settings(max_examples=300, deadline=None)
def test_sparse_xor_search_matches_linear_scan_past_the_column_count(problem):
    columns, target, max_size = problem
    want = linear_xor_search(columns, target, max_size)
    assert sparse_xor_search(columns, target, max_size) == want
    for path in ("coset", "mitm"):
        with on_path(path):
            assert sparse_xor_search(columns, target, max_size) == want


def old_mitm_cost(n, max_size):
    """The meet-in-the-middle estimate summed over every size up to the
    cap: the oracle of ``f2._mitm_cost``, which stops at n and at the
    bound, for caps up to n."""
    cost = half = 0
    for size in range(1, max_size + 1):
        if half < size // 2 and math.comb(n, half + 1) <= f2.XOR_TABLE_MAX_ENTRIES:
            half += 1
            cost += math.comb(n, half)
        cost += math.comb(n - half, size - half)
    return cost


def test_mitm_cost_stopped_at_the_bound_decides_as_the_full_sum():
    # Up to the bound the estimate is the full sum, and past it both
    # are past it.  So for any coset estimate the search refuses (both
    # past the bound), skips the elimination (coset above the smaller
    # of mitm and the bound) and, when not refused, walks the coset
    # (coset <= mitm) exactly as the full sum would have it.
    bound = f2.SEARCH_MAX_COST
    cosets = (0, 1, bound // 2, bound, bound + 1, 1 << 40)
    for n in range(61):
        for max_size in range(n + 1):
            new = f2._mitm_cost(n, max_size)
            old = old_mitm_cost(n, max_size)
            assert new == old if old <= bound else new > bound
            for coset in cosets:
                assert (min(new, coset) > bound) == (min(old, coset) > bound)
                assert (coset > min(new, bound)) == (coset > min(old, bound))
                if min(old, coset) <= bound:
                    assert (coset <= new) == (coset <= old)


def test_search_shape_refuses_a_cap_of_every_column_at_once():
    # The (5000, 4000) brute force at cap 5000: the estimate stops at
    # size 4, where it passes the bound, not at size 5000.
    with cpu_limit(0.2), pytest.raises(ValueError, match=r"takes at least 2\*\*"):
        f2._check_search_shape(5000, 4000, 5000)


def test_sparse_xor_search_drops_shadow_targets_after_elimination():
    # Sixteen 204-bit columns in a span of rank 4, whose pivots are the
    # highest bits of its basis vectors (bits 200 to 203), not its lowest
    # bits: the elimination shows a kernel of dimension 12, the search
    # meets in the middle.  The shadow target differs from column 0 at
    # bit 3 alone, so it is outside the span with the pivot bits of
    # column 0: it has no fit and is dropped before the search, while
    # the reachable target is searched for.
    basis = [1 << 10 + 7 * i | 1 << 200 + i for i in range(4)]
    columns = basis * 4
    pivots = sum(1 << b.bit_length() - 1 for b in eliminate(columns).basis)
    assert pivots == sum(1 << 200 + i for i in range(4))
    shadow, reachable = columns[0] ^ 1 << 3, basis[1] ^ basis[3]
    assert shadow & pivots == columns[0] & pivots
    search = mock.Mock(wraps=f2._search)
    with mock.patch.object(f2, "_search", search):
        assert sparse_xor_search(columns, shadow, 3) is None
        assert sparse_xor_search(columns, reachable, 3) == 0b1010
    assert [call.args[1] for call in search.call_args_list] == [reachable]
    for target in (shadow, reachable):
        assert sparse_xor_search(columns, target, 3) == linear_xor_search(columns, target, 3)


@st.composite
def projected_problems(draw):
    """Columns, a target and a size cap on which the search
    eliminates the columns and then meets in the middle: 12 to 14
    nonzero columns of at least 65 bits in a span of rank at most 4, so
    the elimination runs and shows a kernel too large to walk, and sizes
    up to 3.

    The target is an XOR of drawn columns, a drawn value, or a shadow:
    an XOR of drawn columns changed off the pivots, so outside the span
    with the pivot bits of a vector in it.
    """
    r = draw(st.integers(1, 4))
    basis = [draw(st.integers(0, (1 << 64) - 1)) | 1 << 64 + i for i in range(r)]
    columns = []
    for pattern in draw(st.lists(st.integers(1, (1 << r) - 1), min_size=12, max_size=14)):
        acc = 0
        for i in range(r):
            if pattern >> i & 1:
                acc ^= basis[i]
        columns.append(acc)
    pivots = sum(1 << b.bit_length() - 1 for b in eliminate(columns).basis)
    kind = draw(st.sampled_from(("support", "shadow", "value")))
    if kind == "value":
        target = draw(st.integers(0, (1 << (64 + r)) - 1))
    else:
        target = 0
        for j in draw(st.sets(st.integers(0, len(columns) - 1), max_size=4)):
            target ^= columns[j]
        if kind == "shadow":
            off = draw(st.integers(0, (1 << 70) - 1)) & ~pivots
            target ^= off or (pivots + 1) & ~pivots
    return columns, target, draw(st.integers(1, 3))


@given(projected_problems())
@settings(max_examples=300, deadline=None)
def test_sparse_xor_search_after_elimination_matches_linear_scan(problem):
    columns, target, max_size = problem
    elim = mock.Mock(wraps=f2.eliminate)
    search = mock.Mock(wraps=f2._search)
    with mock.patch.object(f2, "eliminate", elim), mock.patch.object(f2, "_search", search):
        got = sparse_xor_search(columns, target, max_size)
    # A zero target is answered by the empty support before any search,
    # and one outside the span by None after the elimination.
    in_span = not eliminate(columns).reduce(target)[0]
    assert elim.call_count == (target != 0)
    assert search.call_count == (target != 0 and in_span)
    assert got == linear_xor_search(columns, target, max_size)


def test_sparse_xor_search_refuses_past_max_cost():
    # Each path runs at its estimate and is refused one step below it,
    # before any table or walk.  Meet in the middle: twelve unit
    # columns and the all-ones target.  Coset walk: three unit columns
    # and twelve copies of 7, a kernel of dimension 12, up to size 10.
    units = [1 << j for j in range(12)]
    ones = (1 << 12) - 1
    mitm = f2._mitm_cost(12, 12)
    with on_path("mitm"):
        with mock.patch.object(f2, "SEARCH_MAX_COST", mitm):
            assert sparse_xor_search(units, ones, 12) == ones
        with (
            mock.patch.object(f2, "_search", side_effect=AssertionError),
            mock.patch.object(f2, "SEARCH_MAX_COST", mitm - 1),
        ):
            with pytest.raises(ValueError, match="exact search too large.*SEARCH_MAX_COST"):
                sparse_xor_search(units, ones, 12)
        # An empty support needs no search and is never refused.
        with mock.patch.object(f2, "SEARCH_MAX_COST", 0):
            assert sparse_xor_search(units, 0, 12) == 0
    copies = [1, 2, 4] + [7] * 12
    coset = f2._coset_cost(12, 15, 3)
    assert coset < f2._mitm_cost(15, 10)
    with mock.patch.object(f2, "SEARCH_MAX_COST", coset):
        assert sparse_xor_search(copies, 3, 10) == 0b11
    with (
        mock.patch.object(f2, "_first_in_coset", side_effect=AssertionError),
        mock.patch.object(f2, "SEARCH_MAX_COST", coset - 1),
    ):
        with pytest.raises(ValueError, match=r"coset walk 2\*\*12 \(kernel dimension 12\)"):
            sparse_xor_search(copies, 3, 10)


def test_sparse_xor_search_refuses_before_eliminating_past_max_cost():
    # Sixty 31-bit columns have a kernel of dimension at least 29, so
    # the walk takes at least 2**29 steps, and meeting in the middle up
    # to size 12 takes more: the search is refused before the columns
    # are eliminated.
    rng = random.Random(6)
    columns = [rng.getrandbits(31) | 1 << 30 for _ in range(60)]
    assert f2._mitm_cost(60, 12) > f2.SEARCH_MAX_COST
    elim = mock.Mock(wraps=f2.eliminate)
    with mock.patch.object(f2, "eliminate", elim):
        with pytest.raises(ValueError, match=r"coset walk 2\*\*29 \(kernel dimension at least 29\)"):
            sparse_xor_search(columns, columns[0] ^ columns[1], 12)
    assert elim.call_count == 0
