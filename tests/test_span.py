"""Linear extension of labeled bases: sampling, enumeration, dichotomy."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
import scipy.stats

from ncplift.dtree import ParityIndexSet
from ncplift.f2 import BitMatrix, BitVector, rank
from ncplift.instance import LabeledSet
from ncplift.span import (
    enumerate_span,
    exact_disagreement,
    make_span_oracle,
    sample_span,
)


def basis_set(rows, labels):
    pts = [BitVector.from01(r) for r in rows]
    return LabeledSet(tuple(pts), tuple(labels), len(rows[0]))


def random_basis(rng, n, m):
    while True:
        masks = tuple(rng.getrandbits(n) for _ in range(m))
        if rank(BitMatrix(m, n, masks)) == m:
            pts = tuple(BitVector(n, mk) for mk in masks)
            labels = tuple(rng.getrandbits(1) for _ in range(m))
            return LabeledSet(pts, labels, n)


# ---------------------------------------------------------------- construction


def test_rejects_duplicate_points():
    with pytest.raises(ValueError):
        make_span_oracle(basis_set(["11", "11"], [0, 1]))


def test_rejects_dependent_points():
    with pytest.raises(ValueError):
        make_span_oracle(basis_set(["101", "011", "110"], [0, 0, 0]))


def test_dimension_zero_span():
    oracle = make_span_oracle(LabeledSet((), (), 3))
    assert oracle.dimension == 0
    assert enumerate_span(oracle) == [(BitVector.zeros(3), 0)]
    assert sample_span(oracle, random.Random(0)) == (BitVector.zeros(3), 0)


# ---------------------------------------------------------------- enumeration


def test_enumerate_two_point_basis():
    oracle = make_span_oracle(basis_set(["10", "01"], [1, 0]))
    pairs = {(p.to01(), lab) for p, lab in enumerate_span(oracle)}
    assert pairs == {("00", 0), ("10", 1), ("01", 0), ("11", 1)}


def test_enumeration_covers_span_once():
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 8)
        m = rng.randint(0, min(n, 6))
        oracle = make_span_oracle(random_basis(rng, n, m))
        points = [p.mask for p, _ in enumerate_span(oracle)]
        assert len(points) == 1 << m
        assert len(set(points)) == 1 << m


def test_enumeration_gray_order():
    # Consecutive span elements differ by exactly one basis point.
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(2, 8)
        m = rng.randint(1, min(n, 6))
        oracle = make_span_oracle(random_basis(rng, n, m))
        basis = set(oracle.points)
        walk = enumerate_span(oracle)
        for (a, _), (b, _) in zip(walk, walk[1:]):
            assert a.mask ^ b.mask in basis


def test_labels_extend_linearly():
    # The label of a XOR of span points is the XOR of their labels.
    rng = random.Random(19)
    for _ in range(20):
        n = rng.randint(1, 8)
        m = rng.randint(0, min(n, 5))
        oracle = make_span_oracle(random_basis(rng, n, m))
        table = {p.mask: lab for p, lab in enumerate_span(oracle)}
        items = list(table.items())
        for pa, la in items:
            for pb, lb in items:
                assert table[pa ^ pb] == la ^ lb


def test_enumeration_respects_dimension_cap():
    # 21 unit rows span 2**21 points, one dimension past the cap: every
    # enumeration refuses before it lists any of them.
    oracle = make_span_oracle(
        LabeledSet(tuple(BitVector(21, 1 << i) for i in range(21)), (0,) * 21, 21)
    )
    with pytest.raises(ValueError, match="capped at dimension 20"):
        enumerate_span(oracle)
    with pytest.raises(ValueError, match="capped at dimension 20"):
        next(oracle.enumerate_weighted())
    with pytest.raises(ValueError, match="capped at dimension 20"):
        exact_disagreement(oracle, ParityIndexSet.from_iterable([1]))


# ---------------------------------------------------------------- sampling


def test_sampling_stays_inside_span():
    rng = random.Random(37)
    oracle = make_span_oracle(random_basis(rng, 7, 4))
    table = {p.mask: lab for p, lab in enumerate_span(oracle)}
    for _ in range(500):
        p, lab = sample_span(oracle, rng)
        assert table[p.mask] == lab


def test_sampling_is_uniform_chi_squared():
    # 10**5 draws over spans of dimension <= 6; reject only below the
    # 10**-3 quantile, with fixed seeds so the run is reproducible.
    rng = random.Random(41)
    for dim in (1, 3, 6):
        oracle = make_span_oracle(random_basis(rng, 8, dim))
        draws = 10**5
        counts: dict[int, int] = {}
        for _ in range(draws):
            p, _ = sample_span(oracle, rng)
            counts[p.mask] = counts.get(p.mask, 0) + 1
        cells = 1 << dim
        expected = draws / cells
        stat = sum(
            (counts.get(p.mask, 0) - expected) ** 2 / expected
            for p, _ in enumerate_span(oracle)
        )
        threshold = scipy.stats.chi2.ppf(1 - 1e-3, df=cells - 1)
        assert stat < threshold


def test_planted_parity_labels_survive_sampling():
    # Labels built from a parity on the basis stay that parity on every
    # sampled span point.
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randint(2, 8)
        m = rng.randint(1, min(n, 6))
        base = random_basis(rng, n, m)
        ind = BitVector(n, rng.getrandbits(n))
        labeled = LabeledSet(
            base.points, tuple(p.dot(ind) for p in base.points), n
        )
        oracle = make_span_oracle(labeled)
        for _ in range(50):
            p, lab = sample_span(oracle, rng)
            assert lab == p.dot(ind)


# ---------------------------------------------------------------- dichotomy


def naive_disagreement(oracle, s):
    bad = 0
    for p, lab in enumerate_span(oracle):
        val = 0
        for i in s.indices:
            val ^= p.bit(i)
        bad += val != lab
    return Fraction(bad, 1 << oracle.dimension)


def test_exact_disagreement_matches_naive_count():
    rng = random.Random(51)
    for _ in range(40):
        n = rng.randint(1, 10)
        m = rng.randint(0, min(n, 6))
        oracle = make_span_oracle(random_basis(rng, n, m))
        for _ in range(10):
            size = rng.randint(0, min(n, 4))
            s = ParityIndexSet.from_iterable(rng.sample(range(1, n + 1), size))
            assert exact_disagreement(oracle, s) == naive_disagreement(oracle, s)


def test_disagreement_is_zero_or_half():
    # Every parity either matches the whole span or exactly half of it.
    rng = random.Random(57)
    for _ in range(60):
        n = rng.randint(1, 12)
        m = rng.randint(0, min(n, 10))
        oracle = make_span_oracle(random_basis(rng, n, m))
        for size in range(0, min(n, 4) + 1):
            for picks in combinations(range(1, n + 1), size):
                s = ParityIndexSet.from_iterable(picks)
                d = exact_disagreement(oracle, s)
                agrees_basis = all(
                    BitVector(n, pm).dot(BitVector(n, s.mask)) == lab
                    for pm, lab in zip(oracle.points, oracle.labels)
                )
                if agrees_basis:
                    assert d == 0
                else:
                    assert d == Fraction(1, 2)
            if n > 6:
                break  # keep the subset sweep bounded on wider points


def test_disagreement_rejects_foreign_index():
    oracle = make_span_oracle(basis_set(["10", "01"], [1, 0]))
    with pytest.raises(ValueError):
        exact_disagreement(oracle, ParityIndexSet.from_iterable([3]))
