"""Problem instances in three views, plus the exact brute-force solver."""

import random
import time
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncplift import f2
from ncplift.f2 import BitMatrix, BitVector, FormatError, eliminate, mat_vec, rank
from ncplift.instance import (
    LabeledSet,
    NcpInstance,
    SyndromeInstance,
    UnsatisfiableInstanceError,
    _independent_rows,
    brute_force_nearest,
    generator_to_syndrome,
    load_instance,
    normalize_syndrome,
    random_planted,
    read_generator_instance,
    read_syndrome_instance,
    syndrome_to_labeled_set,
    write_syndrome_instance,
)
from ncplift.reduction import verify_certificate
from ncplift.span import make_span_oracle

from helpers import identity, matrix


def codewords(g):
    cols = g.column_masks()
    seen = set()
    for combo in range(1 << g.cols):
        acc = 0
        for j in range(g.cols):
            if combo >> j & 1:
                acc ^= cols[j]
        seen.add(acc)
    return seen


# ---------------------------------------------------------------- dataclasses


def test_instance_validation():
    g = identity(2)
    z = BitVector.from01("10")
    NcpInstance(g, z, 1, Fraction(1))
    with pytest.raises(ValueError):
        NcpInstance(g, BitVector.from01("100"), 1, Fraction(1))
    with pytest.raises(ValueError):
        NcpInstance(g, z, -1, Fraction(1))
    with pytest.raises(ValueError):
        NcpInstance(g, z, 1, Fraction(1, 2))


def test_syndrome_properties():
    h = matrix("101", "011")
    inst = SyndromeInstance(h, BitVector.from01("10"), 1, Fraction(2))
    assert inst.n == 3
    assert inst.m == 2
    with pytest.raises(ValueError):
        SyndromeInstance(h, BitVector.from01("1"), 1, Fraction(1))


def test_labeled_set_validation():
    p = BitVector.from01("10")
    LabeledSet((p,), (1,), 2)
    with pytest.raises(ValueError):
        LabeledSet((p,), (1, 0), 2)
    with pytest.raises(ValueError):
        LabeledSet((p,), (2,), 2)
    with pytest.raises(ValueError):
        LabeledSet((p,), (1,), 3)


# ---------------------------------------------------------------- view changes


def test_generator_to_syndrome_repetition_code():
    # Code {00, 11}; the point 10 is at distance 1 from it.
    inst = NcpInstance(
        matrix("1", "1"), BitVector.from01("10"), 1, Fraction(1)
    )
    sd = generator_to_syndrome(inst)
    assert sd.h == matrix("11")
    assert sd.t.to01() == "1"
    assert brute_force_nearest(sd, 1) == BitVector.from01("10")


def test_codeword_target_gives_zero_syndrome():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 6)
        d = rng.randint(1, 6)
        g = BitMatrix(n, d, tuple(rng.getrandbits(d) for _ in range(n)))
        w = rng.getrandbits(d)
        cols = g.column_masks()
        acc = 0
        for j in range(d):
            if w >> j & 1:
                acc ^= cols[j]
        inst = NcpInstance(g, BitVector(n, acc), 0, Fraction(1))
        sd = generator_to_syndrome(inst)
        assert sd.t.mask == 0
        assert brute_force_nearest(sd, sd.n) == BitVector(n, 0)


def test_view_equivalence_small():
    # The distance from z to the code equals the least sparsity of a
    # syndrome solution, checked by enumerating both sides.
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 6)
        d = rng.randint(1, 6)
        g = BitMatrix(n, d, tuple(rng.getrandbits(d) for _ in range(n)))
        z = BitVector(n, rng.getrandbits(n))
        dist = min((z.mask ^ c).bit_count() for c in codewords(g))
        sd = generator_to_syndrome(NcpInstance(g, z, 0, Fraction(1)))
        best = brute_force_nearest(sd, sd.n)
        assert best is not None
        assert best.sparsity == dist
        assert mat_vec(sd.h, best) == sd.t


def test_syndrome_to_labeled_set_transcription():
    h = identity(2)
    inst = SyndromeInstance(h, BitVector.from01("10"), 1, Fraction(1))
    ls = syndrome_to_labeled_set(inst)
    assert ls.length == 2
    assert ls.points == (BitVector.from01("10"), BitVector.from01("01"))
    assert ls.labels == (1, 0)
    assert ls.m == 2


def test_span_of_syndrome_rows_rejects_dependent_rows():
    # syndrome_to_labeled_set takes the rows as they are; the span
    # built on them is the one independence check on that path.
    inst = SyndromeInstance(
        matrix("11", "11"), BitVector.from01("11"), 1, Fraction(1)
    )
    labeled = syndrome_to_labeled_set(inst)
    with pytest.raises(ValueError, match="independent"):
        make_span_oracle(labeled)


def test_parity_consistency_matches_matrix_equation():
    # A parity over support S fits every labeled row exactly when
    # H 1_S = t.
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rng.randint(1, n)
        h = _independent_rows(rng, n, m)
        t = BitVector(m, rng.getrandbits(m))
        ls = syndrome_to_labeled_set(SyndromeInstance(h, t, 1, Fraction(1)))
        for smask in range(1 << n):
            ind = BitVector(n, smask)
            fits = all(
                (p.mask & smask).bit_count() & 1 == lab for p, lab in zip(ls.points, ls.labels)
            )
            assert fits == (mat_vec(h, ind) == t)


# ---------------------------------------------------------------- normalize


def test_normalize_drops_consistent_dependent_row():
    inst = SyndromeInstance(
        matrix("11", "11"), BitVector.from01("11"), 1, Fraction(1)
    )
    norm = normalize_syndrome(inst)
    assert norm.h == matrix("11")
    assert norm.t.to01() == "1"
    assert norm.k == inst.k and norm.alpha == inst.alpha


def test_normalize_detects_contradiction():
    inst = SyndromeInstance(
        matrix("11", "11"), BitVector.from01("10"), 1, Fraction(1)
    )
    with pytest.raises(UnsatisfiableInstanceError):
        normalize_syndrome(inst)


def test_normalize_preserves_solution_set():
    rng = random.Random(53)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        m = rng.randint(1, 2 * n)
        h = BitMatrix(m, n, tuple(rng.getrandbits(n) for _ in range(m)))
        t = BitVector(m, rng.getrandbits(m))
        inst = SyndromeInstance(h, t, 1, Fraction(1))
        try:
            norm = normalize_syndrome(inst)
        except UnsatisfiableInstanceError:
            # The original system must then have no solution at all.
            for xm in range(1 << n):
                assert mat_vec(h, BitVector(n, xm)) != t
            continue
        assert rank(norm.h) == norm.m
        checked += 1
        for xm in range(1 << n):
            x = BitVector(n, xm)
            assert (mat_vec(h, x) == t) == (mat_vec(norm.h, x) == norm.t)
    assert checked > 50


def test_normalize_keeps_independent_instance():
    rng = random.Random(59)
    h = _independent_rows(rng, 5, 3)
    inst = SyndromeInstance(h, BitVector(3, 0b101), 2, Fraction(1))
    assert normalize_syndrome(inst) is inst


# ---------------------------------------------------------------- brute force


def test_brute_force_zero_target():
    inst = SyndromeInstance(
        matrix("110", "011"), BitVector(2, 0), 1, Fraction(1)
    )
    assert brute_force_nearest(inst, 0) == BitVector(3, 0)


def test_brute_force_absent_within_cap():
    inst = SyndromeInstance(
        identity(2), BitVector.from01("11"), 1, Fraction(1)
    )
    assert brute_force_nearest(inst, 1) is None
    assert brute_force_nearest(inst, 2) == BitVector.from01("11")


def test_brute_force_lexicographic_tie_break():
    # Both 10 and 01 solve the single equation; the lexicographically
    # first support wins.
    inst = SyndromeInstance(
        matrix("11"), BitVector.from01("1"), 1, Fraction(1)
    )
    assert brute_force_nearest(inst, 1) == BitVector.from01("10")


def test_brute_force_returns_sparsest():
    rng = random.Random(61)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rng.randint(1, n)
        h = _independent_rows(rng, n, m)
        t = BitVector(m, rng.getrandbits(m))
        inst = SyndromeInstance(h, t, 1, Fraction(1))
        sols = [
            xm for xm in range(1 << n) if mat_vec(h, BitVector(n, xm)) == t
        ]
        best = brute_force_nearest(inst, n)
        if not sols:
            assert best is None
        else:
            assert best is not None
            assert mat_vec(h, best) == t
            assert best.sparsity == min(bin(s).count("1") for s in sols)


def scan_nearest(inst, k_max):
    """The enumeration brute force ran before it met in the middle:
    supports by size, then lexicographically, first hit wins."""
    n = inst.h.cols
    cols = inst.h.column_masks()
    target = inst.t.mask
    if target == 0:
        return BitVector(n, 0)
    for size in range(1, k_max + 1):
        for supp in combinations(range(n), size):
            acc = 0
            for j in supp:
                acc ^= cols[j]
            if acc == target:
                mask = 0
                for j in supp:
                    mask |= 1 << j
                return BitVector(n, mask)
    return None


@given(st.integers(1, 12), st.data())
@settings(max_examples=300, deadline=None)
def test_brute_force_matches_the_enumeration(n, data):
    # Few rows make many supports share a syndrome, so the
    # lexicographic tie-break decides most answers.
    m = data.draw(st.integers(1, min(n, 8)))
    h = BitMatrix(m, n, tuple(data.draw(st.integers(0, (1 << n) - 1)) for _ in range(m)))
    t = BitVector(m, data.draw(st.integers(0, (1 << m) - 1)))
    inst = SyndromeInstance(h, t, 1, Fraction(1))
    k_max = data.draw(st.integers(0, n))
    assert brute_force_nearest(inst, k_max) == scan_nearest(inst, k_max)


def test_brute_force_rejects_oversized_cap():
    inst = SyndromeInstance(
        identity(2), BitVector.from01("11"), 1, Fraction(1)
    )
    with pytest.raises(ValueError):
        brute_force_nearest(inst, 3)


def test_negative_sparsity_cap_is_rejected():
    # A negative cap admits no vector at all, so a confident "none" or
    # "invalid" would answer a malformed question; both checks refuse it,
    # also for the zero target and the zero vector.
    inst, x = random_planted(14, 10, 2, seed=7)
    zero = SyndromeInstance(inst.h, BitVector(10, 0), 2, Fraction(1))
    for case in (inst, zero):
        with pytest.raises(ValueError, match="sparsity cap"):
            brute_force_nearest(case, -1)
    with pytest.raises(ValueError, match="sparsity cap"):
        verify_certificate(inst, x, -1)
    with pytest.raises(ValueError, match="sparsity cap"):
        verify_certificate(zero, BitVector(14, 0), -1)
    assert verify_certificate(inst, x, 2)
    assert brute_force_nearest(zero, 0) == BitVector(14, 0)


def test_brute_force_on_far_targets_walks_the_coset():
    # On a 48 x 64 H, random targets have sparsest solutions of weight
    # about 14 to 17, past what meeting in the middle reaches in
    # minutes; the solution coset has 2**16 elements.  The oracle XORs every
    # combination of a kernel basis into one solution.
    inst, _ = random_planted(64, 48, 5, 3)
    kernel = eliminate(inst.h.column_masks()).kernel
    assert len(kernel) == 16
    rng = random.Random(11)
    for _ in range(3):
        x0 = rng.getrandbits(64)
        coset = []
        for combo in range(1 << 16):
            x = x0
            for i in range(16):
                if combo >> i & 1:
                    x ^= kernel[i]
            coset.append(x)
        weight = min(x.bit_count() for x in coset)
        want = min(BitVector(64, x).support() for x in coset if x.bit_count() == weight)
        far = SyndromeInstance(inst.h, mat_vec(inst.h, BitVector(64, x0)), weight, Fraction(1))
        start = time.monotonic()
        for cap in (15, weight - 1, weight):
            got = brute_force_nearest(far, cap)
            assert (got.support() if got else None) == (want if cap >= weight else None)
        assert time.monotonic() - start < 5.0


def test_brute_force_solve_exact_shape_skips_the_elimination():
    # At n=64, m=48 the kernel has dimension >= 16, so at caps up to
    # 5 meeting in the middle wins on the column widths alone.
    inst, x = random_planted(64, 48, 5, 1)
    with mock.patch.object(f2, "eliminate", side_effect=AssertionError):
        assert brute_force_nearest(inst, 5) == x
        assert brute_force_nearest(inst, 4) is None


def test_brute_force_refuses_searches_that_cannot_finish():
    # Kernel dimension >= 200 and C(400, 20)-sized halves: both
    # estimates are past the cap, and nothing is eliminated, tabled or
    # walked before the refusal.
    inst, _ = random_planted(400, 200, 5, 1)
    guards = [
        mock.patch.object(f2, name, side_effect=AssertionError)
        for name in ("eliminate", "_search", "_first_in_coset")
    ]
    for guard in guards:
        guard.start()
    try:
        with pytest.raises(ValueError, match=r"2\*\*\d+ steps .* 2\*\*200 .*at least 200"):
            brute_force_nearest(inst, 40)
    finally:
        for guard in guards:
            guard.stop()


# ---------------------------------------------------------------- planted


def test_random_planted_is_deterministic():
    a_inst, a_x = random_planted(10, 6, 2, 99)
    b_inst, b_x = random_planted(10, 6, 2, 99)
    assert a_inst == b_inst
    assert a_x == b_x
    c_inst, _ = random_planted(10, 6, 2, 100)
    assert c_inst != a_inst


def test_random_planted_shape_and_consistency():
    for seed in range(20):
        inst, x = random_planted(12, 7, 3, seed)
        assert inst.n == 12 and inst.m == 7 and inst.k == 3
        assert inst.alpha == Fraction(1)
        assert rank(inst.h) == 7
        assert x.sparsity == 3
        assert mat_vec(inst.h, x) == inst.t


def test_random_planted_weight_zero():
    inst, x = random_planted(8, 4, 0, 3)
    assert x == BitVector(8, 0)
    assert inst.t == BitVector(4, 0)


def test_random_planted_rejects_bad_shapes():
    with pytest.raises(ValueError):
        random_planted(4, 5, 1, 0)
    with pytest.raises(ValueError):
        random_planted(4, 2, 5, 0)


def test_random_planted_rejects_a_negative_seed():
    # Random(-s) seeds like Random(s), so -1 would alias seed 1.
    with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
        random_planted(4, 2, 1, -1)


# ---------------------------------------------------------------- file formats


def test_syndrome_file_round_trip():
    inst = SyndromeInstance(
        identity(2), BitVector.from01("10"), 1, Fraction(3, 2)
    )
    text = write_syndrome_instance(inst)
    assert text == "ncpsd v1\n2 2 1 3 2\n10\n01\n10\n"
    assert read_syndrome_instance(text) == inst
    assert load_instance(text) == inst


def test_generator_file_round_trip():
    inst = NcpInstance(
        matrix("1", "1"), BitVector.from01("10"), 1, Fraction(1)
    )
    assert read_generator_instance("ncpgen v1\n2 1 1 1 1\n1\n1\n10\n") == inst


def test_load_instance_converts_generator_view():
    inst = NcpInstance(
        matrix("1", "1"), BitVector.from01("10"), 1, Fraction(1)
    )
    sd = load_instance("ncpgen v1\n2 1 1 1 1\n1\n1\n10\n")
    assert sd == generator_to_syndrome(inst)


def test_zero_row_syndrome_round_trip():
    inst = SyndromeInstance(
        BitMatrix(0, 3, ()), BitVector(0, 0), 1, Fraction(1)
    )
    assert read_syndrome_instance(write_syndrome_instance(inst)) == inst


def test_instance_file_rejections():
    good = "ncpsd v1\n2 2 1 1 1\n10\n01\n10\n"
    assert read_syndrome_instance(good) is not None
    for bad in (
        "ncpsd v1\n2 2 1 1 1\n10\n01\n10",  # missing final newline
        "ncpsd v2\n2 2 1 1 1\n10\n01\n10\n",  # unknown header
        "ncpsd v1\n2 2 1 1\n10\n01\n10\n",  # short parameter line
        "ncpsd v1\n2 2 1 1 0\n10\n01\n10\n",  # zero denominator
        "ncpsd v1\n2 2 1 1 1\n10\n011\n10\n",  # ragged row
        "ncpsd v1\n2 2 1 1 1\n10\n0x\n10\n",  # non-binary digit
        "ncpsd v1\n2 2 1 1 1\n10\n01\n+1\n",  # a signed target, which int() would take
        "ncpsd v1\n0 -1 1 1 1\n\n",  # negative column count
        "ncpsd v1\n2 2 1 1 1\n10\n01\n1\n",  # target length mismatch
        "ncpsd v1\n2 2 1 1 1\n10\n10\n",  # missing row
        "ncpsd v1\n2 2 -1 1 1\n10\n01\n10\n",  # negative sparsity
        "ncpsd v1\n+1 0_2 \u0661 1 1\n10\n1\n",  # a sign, an underscore and a non-ASCII digit
        "ncpsd v1\n2 2 1 1 1\t\n10\n01\n10\n",  # a tab, which int() would strip
        "ncpsd v1\n2 2 1 1 \uff11\n10\n01\n10\n",  # a fullwidth digit
    ):
        with pytest.raises(FormatError):
            read_syndrome_instance(bad)
    with pytest.raises(FormatError):
        load_instance("nonsense\n")
    with pytest.raises(FormatError):
        read_generator_instance("ncpgen v1\n2 1 1 1 1\n1\n1\n1\n")
