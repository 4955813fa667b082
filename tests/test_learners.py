"""Learners over example oracles: exhaustive parity fits and greedy splits."""

import gc
import itertools
import random
import time
import tracemalloc
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ncplift import f2, learners
from ncplift.dtree import (
    Leaf,
    Node,
    ParityIndexSet,
    complement_tree,
    eval_tree,
    parse_tree,
    truth_table,
)
from ncplift.f2 import BitMatrix, BitVector, rank
from ncplift.gadget import (
    FinitePmf,
    GadgetParams,
    exact_lifted_tree_error,
    span_lifted_tree_error,
)
from ncplift.instance import LabeledSet
from ncplift.learners import (
    LearnerBudget,
    exhaustive_parity_learner,
    greedy_learner,
    parity_to_tree,
    planted_learner,
)
from ncplift.span import exact_disagreement, make_span_oracle


def index_set(*indices):
    return ParityIndexSet.from_iterable(indices)


class CycleOracle:
    """Deterministic oracle cycling through a fixed sample list."""

    def __init__(self, pairs, length):
        self.pairs = [(BitVector.from01(b), lab) for b, lab in pairs]
        self.length = length
        self.pos = 0

    def sample(self, rng):
        pair = self.pairs[self.pos % len(self.pairs)]
        self.pos += 1
        return pair


def pmf_oracle(bits_labels_weights, length):
    total = sum(w for _, _, w in bits_labels_weights)
    pts = tuple(BitVector.from01(b) for b, _, _ in bits_labels_weights)
    labs = tuple(lab for _, lab, _ in bits_labels_weights)
    probs = tuple(Fraction(w, total) for _, _, w in bits_labels_weights)
    return FinitePmf(pts, probs, labs, length)


def parity_span_oracle(rng, n, s):
    """Full-cube span with labels given by the parity over s."""
    points = tuple(BitVector(n, 1 << i) for i in range(n))
    labels = tuple(1 if (i + 1) in s else 0 for i in range(n))
    return make_span_oracle(LabeledSet(points, labels, n))


def budget(size=16, depth=4, samples=200):
    return LearnerBudget(size, depth, samples)


# ---------------------------------------------------------------- plumbing


def test_budget_validation():
    budget()
    with pytest.raises(ValueError):
        LearnerBudget(0, 1, 10)
    with pytest.raises(ValueError):
        LearnerBudget(1, -1, 10)
    with pytest.raises(ValueError):
        LearnerBudget(1, 1, 0)


def test_parity_to_tree_shapes():
    assert parity_to_tree(index_set()) == Leaf(0)
    assert parity_to_tree(index_set(3)) == Node(3, Leaf(0), Leaf(1))
    t = parity_to_tree(index_set(1, 2))
    assert t.size == 4 and t.depth == 2
    for ym in range(4):
        y = BitVector(2, ym)
        assert eval_tree(t, y) == index_set(1, 2).chi(y)


def test_parity_tree_queries_ascending():
    t = parity_to_tree(index_set(2, 5))
    assert t == Node(
        2,
        Node(5, Leaf(0), Leaf(1)),
        Node(5, Leaf(1), Leaf(0)),
    )


def test_planted_learner_ignores_oracle():
    learner = planted_learner(index_set(1, 3))
    tree = learner(object(), 4, budget(), random.Random(0))
    assert tree == parity_to_tree(index_set(1, 3))


# ---------------------------------------------------------------- exhaustive


def test_exhaustive_recovers_planted_parity():
    # 100 seeded runs; the sample is large enough that every other
    # candidate parity misclassifies some drawn point.
    hits = 0
    for seed in range(100):
        rng = random.Random(seed)
        n = rng.randint(3, 8)
        size = rng.randint(0, 3)
        s = ParityIndexSet.from_iterable(rng.sample(range(1, n + 1), size))
        oracle = parity_span_oracle(rng, n, s)
        tree = exhaustive_parity_learner(
            oracle, n, budget(size=8, depth=3, samples=200), random.Random(seed)
        )
        if tree == parity_to_tree(s):
            hits += 1
    assert hits == 100


def test_exhaustive_depth_zero_returns_better_constant():
    oracle = pmf_oracle([("0", 1, 3), ("1", 0, 1)], 1)
    tree = exhaustive_parity_learner(
        oracle, 1, budget(size=16, depth=0, samples=400), random.Random(5)
    )
    assert tree == Leaf(1)


def test_exhaustive_is_deterministic_given_seed():
    rng_oracle = random.Random(7)
    oracle = parity_span_oracle(rng_oracle, 6, index_set(2, 4))
    a = exhaustive_parity_learner(oracle, 6, budget(), random.Random(11))
    b = exhaustive_parity_learner(oracle, 6, budget(), random.Random(11))
    assert a == b


def test_exhaustive_matches_independent_enumeration():
    # Replay the same sample and grade every candidate by hand: the
    # returned tree is the first zero-error candidate in (size, lex,
    # plain first) order, or the better constant when none fits.
    for seed in range(20):
        rng = random.Random(200 + seed)
        n = rng.randint(2, 6)
        masks = []
        while True:
            masks = [rng.getrandbits(n) for _ in range(n)]
            if rank(BitMatrix(n, n, tuple(masks))) == n:
                break
        labels = tuple(rng.getrandbits(1) for _ in range(n))
        oracle = make_span_oracle(
            LabeledSet(tuple(BitVector(n, mk) for mk in masks), labels, n)
        )
        bud = budget(size=16, depth=min(n, 3), samples=64)
        tree = exhaustive_parity_learner(oracle, n, bud, random.Random(seed))

        rng_replay = random.Random(seed)
        sample = [oracle.sample(rng_replay) for _ in range(bud.sample_budget)]
        fits = [
            (s, flip)
            for size in range(0, min(n, 3) + 1)
            for picks in itertools.combinations(range(1, n + 1), size)
            for s in [ParityIndexSet.from_iterable(picks)]
            for flip in (0, 1)
            if all(s.chi(p) ^ flip == lab for p, lab in sample)
        ]
        if fits:
            s, flip = fits[0]
            want = complement_tree(parity_to_tree(s)) if flip else parity_to_tree(s)
        else:
            ones = sum(lab for _, lab in sample)
            want = Leaf(1 if ones > len(sample) - ones else 0)
        assert tree == want


def test_exhaustive_prefers_smaller_support_on_ties():
    # Coordinate 2 is identically zero on the span, so the singleton
    # equals the pair on every sample; the smaller support wins.
    oracle = make_span_oracle(
        LabeledSet((BitVector.from01("10"),), (1,), 2)
    )
    tree = exhaustive_parity_learner(
        oracle, 2, budget(size=4, depth=2, samples=50), random.Random(3)
    )
    assert tree == parity_to_tree(index_set(1))


def test_exhaustive_respects_size_budget_over_depth():
    # A size budget of 1 restricts the search to constants even when the
    # depth budget allows more.
    oracle = pmf_oracle([("00", 0, 1), ("11", 1, 1)], 2)
    tree = exhaustive_parity_learner(
        oracle, 2, LearnerBudget(1, 2, 100), random.Random(1)
    )
    assert isinstance(tree, Leaf)


def test_exhaustive_hard_contract_on_random_oracles():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(2, 7)
        m = rng.randint(1, n)
        while True:
            masks = tuple(rng.getrandbits(n) for _ in range(m))
            if rank(BitMatrix(m, n, masks)) == m:
                break
        oracle = make_span_oracle(
            LabeledSet(
                tuple(BitVector(n, mk) for mk in masks),
                tuple(rng.getrandbits(1) for _ in range(m)),
                n,
            )
        )
        size_b = rng.choice([1, 2, 4, 8])
        depth_b = rng.randint(0, n)
        tree = exhaustive_parity_learner(
            oracle, n, LearnerBudget(size_b, depth_b, 64), random.Random(rng.random())
        )
        assert tree.size <= size_b
        assert tree.depth <= depth_b


def test_exhaustive_rejects_depth_beyond_arity():
    oracle = pmf_oracle([("0", 0, 1)], 1)
    with pytest.raises(ValueError):
        exhaustive_parity_learner(oracle, 1, budget(depth=2), random.Random(0))


def scan_learner(oracle, arity, budget, rng):
    """The exhaustive learner's contract as one linear scan: the first
    zero-error candidate in (size, lex, plain before complement) order,
    else the better constant (1 only when ones outnumber zeros)."""
    samples = [oracle.sample(rng) for _ in range(budget.sample_budget)]
    nsamp = len(samples)
    cols = [0] * arity
    label_col = 0
    for row, (point, label) in enumerate(samples):
        bit = 1 << row
        if label:
            label_col |= bit
        for j in range(arity):
            if point.mask >> j & 1:
                cols[j] |= bit
    max_size = min(budget.depth_budget, budget.size_budget.bit_length() - 1)
    for size in range(max_size + 1):
        for combo in itertools.combinations(range(arity), size):
            acc = 0
            for j in combo:
                acc ^= cols[j]
            err = (acc ^ label_col).bit_count()
            if err in (0, nsamp):
                tree = parity_to_tree(ParityIndexSet(tuple(j + 1 for j in combo)))
                return tree if err == 0 else complement_tree(tree)
    ones = label_col.bit_count()
    return Leaf(1 if ones > nsamp - ones else 0)


@st.composite
def learner_cases(draw):
    """An oracle, its arity and a budget.

    Span oracles with independent rows always admit an exact fit within
    a full depth budget.  Finite pmfs with free labels often admit none,
    so the better constant is returned; with an even handful of samples
    its ties are common, and 0 must win them.
    """
    n = draw(st.integers(1, 7))
    if draw(st.booleans()):
        m = draw(st.integers(1, n))
        masks = draw(
            st.lists(st.integers(1, (1 << n) - 1), min_size=m, max_size=m).filter(
                lambda ms: rank(BitMatrix(len(ms), n, tuple(ms))) == len(ms)
            )
        )
        labels = tuple(draw(st.integers(0, 1)) for _ in masks)
        oracle = make_span_oracle(
            LabeledSet(tuple(BitVector(n, mk) for mk in masks), labels, n)
        )
    else:
        points = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=6, unique=True))
        weights = [draw(st.integers(1, 3)) for _ in points]
        oracle = FinitePmf(
            tuple(BitVector(n, p) for p in points),
            tuple(Fraction(w, sum(weights)) for w in weights),
            tuple(draw(st.integers(0, 1)) for _ in points),
            n,
        )
    bud = LearnerBudget(
        draw(st.sampled_from([1, 2, 4, 8, 16, 64, 128])),
        draw(st.integers(0, min(n, 6))),
        draw(st.sampled_from([1, 2, 3, 4, 6, 64])),
    )
    return oracle, n, bud, draw(st.integers(0, 1 << 32))


@given(learner_cases())
@settings(max_examples=300, deadline=None)
def test_exhaustive_matches_the_linear_scan(case):
    oracle, n, bud, seed = case
    got = exhaustive_parity_learner(oracle, n, bud, random.Random(seed))
    assert got == scan_learner(oracle, n, bud, random.Random(seed))


class NoiseOracle:
    """Uniform points with independent uniform labels."""

    def __init__(self, length):
        self.length = length

    def sample(self, rng):
        return BitVector(self.length, rng.getrandbits(self.length)), rng.getrandbits(1)


def test_exhaustive_answers_a_huge_search_at_once():
    # Depth 16 over 80 coordinates: C(80, <=16), about 3e16 candidates.
    # The 256 noise samples give 80 independent columns, so the
    # exact-fit search walks a one-element coset, finds no fit and the
    # better constant comes back, with no table built.
    with (
        mock.patch.object(f2, "_search", side_effect=AssertionError),
        mock.patch.object(f2, "_half_table", side_effect=AssertionError),
    ):
        tracemalloc.start()
        try:
            started = time.monotonic()
            tree = exhaustive_parity_learner(
                NoiseOracle(80), 80, LearnerBudget(1 << 16, 16, 256), random.Random(4)
            )
            elapsed = time.monotonic() - started
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert isinstance(tree, Leaf)
    assert elapsed < 1.0
    assert peak < 2**20


class NoisyParityOracle:
    """Uniform points labeled by the parity over ``mask`` (0-based bits),
    each label flipped with probability ``noise``.  With ``twins`` the
    upper half of the coordinates copies the lower half."""

    def __init__(self, length, mask, noise, twins=False):
        self.length = length
        self.mask = mask
        self.noise = noise
        self.twins = twins

    def sample(self, rng):
        x = rng.getrandbits(self.length)
        if self.twins:
            half = self.length // 2
            x = x % (1 << half) * ((1 << half) + 1)
        label = (x & self.mask).bit_count() & 1
        if rng.random() < self.noise:
            label ^= 1
        return BitVector(self.length, x), label


def noisy_cases():
    """Arity 24-28 at depth 4: noisy parities of size 0-4, the flips
    mostly leaving no exact fit.  Twin coordinates make equal columns,
    so an exact fit at 20-32 samples is often shared by several
    candidates: the first one in scan order must win."""
    rng = random.Random(61)
    for case in range(16):
        arity = rng.choice([24, 28])
        support = rng.sample(range(arity), rng.randint(0, 4))
        mask = sum(1 << j for j in support)
        noise = rng.choice([0.1, 0.3, 0.5])
        samples = rng.choice([20, 24, 32, 300])
        oracle = NoisyParityOracle(arity, mask, noise, twins=case % 2 == 1)
        yield oracle, arity, LearnerBudget(16, 4, samples), case


def test_exhaustive_matches_the_scan_on_noisy_labels():
    for oracle, arity, bud, seed in noisy_cases():
        got = exhaustive_parity_learner(oracle, arity, bud, random.Random(seed))
        assert got == scan_learner(oracle, arity, bud, random.Random(seed)), seed


@given(
    st.integers(4, 6),
    st.integers(4, 6),
    st.sampled_from([2, 3]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=20, deadline=None)
def test_no_fit_leaves_every_candidate_at_one_half(n, m, ell, seed):
    # What the exhaustive learner's fallback rests on.  When the span's
    # labels admit no parity fit of size <= 3, every lifted parity tree
    # of size <= 3, plain or complemented, and both constants sit at
    # lifted distance exactly 1/2: no candidate the learner skips beats
    # the constant it returns.  The smallest sizes are also checked
    # against the per-point enumeration.  Below 4 rows nearly every
    # labelling has such a fit.
    rng = random.Random(seed)
    m = min(m, n)
    while True:
        masks = tuple(rng.getrandbits(n) for _ in range(m))
        if rank(BitMatrix(m, n, masks)) == m:
            break
    points = tuple(BitVector(n, mk) for mk in masks)
    small = [
        ParityIndexSet(picks)
        for size in range(4)
        for picks in itertools.combinations(range(1, n + 1), size)
    ]
    for _ in range(16):
        span = make_span_oracle(LabeledSet(points, tuple(rng.getrandbits(1) for _ in masks), n))
        if all(exact_disagreement(span, s) != 0 for s in small):
            break
    else:
        assume(False)
    params = GadgetParams(ell, n)
    half = Fraction(1, 2)
    for size in range(4):
        for picks in itertools.combinations(range(1, params.lifted_n + 1), size):
            tree = parity_to_tree(ParityIndexSet(picks))
            for t in (tree, complement_tree(tree)):
                assert span_lifted_tree_error(t, span, params) == half
                if size <= 1:
                    assert exact_lifted_tree_error(t, span, params) == half
    for leaf in (Leaf(0), Leaf(1)):
        assert span_lifted_tree_error(leaf, span, params) == half
        assert exact_lifted_tree_error(leaf, span, params) == half


class ExplodingOracle:
    """An oracle that must not be sampled."""

    def sample(self, rng):
        raise AssertionError("sampled past a refusal")


def test_exhaustive_bounds_the_exact_fit_search(monkeypatch):
    # Arity 40 with 8 samples: columns of at most 8 bits leave a kernel
    # of dimension >= 32, so the search meets in the middle, and its
    # estimate is the meet in the middle's alone.  The labels are a
    # parity of three coordinates, so an exact fit exists.
    oracle = NoisyParityOracle(40, 0b1011, 0.0)
    bud = LearnerBudget(16, 4, 8)
    estimate = f2._mitm_cost(40, 2, 4)
    monkeypatch.setattr(learners, "SEARCH_MAX_COST", estimate)
    tree = exhaustive_parity_learner(oracle, 40, bud, random.Random(3))
    assert tree.depth <= 3
    monkeypatch.setattr(learners, "SEARCH_MAX_COST", estimate - 1)
    with mock.patch.object(f2, "_search", side_effect=AssertionError):
        with pytest.raises(ValueError, match="exact search too large"):
            exhaustive_parity_learner(oracle, 40, bud, random.Random(3))


def test_error_scan_retains_no_memory():
    # With the cyclic collector off, anything caught in a reference cycle
    # (a table, a recursive closure) outlives its call.  Thirty calls at
    # arity 28 that each return a parity tree must create no unreachable
    # object and leave no memory behind.  The warm-up calls run traced,
    # so that objects parked in CPython's free lists are counted before.
    oracle = NoisyParityOracle(28, 0b1011, 0.0)
    bud = LearnerBudget(8, 3, 100)
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    tracemalloc.start()
    try:
        for seed in range(3):
            assert exhaustive_parity_learner(oracle, 28, bud, random.Random(seed)).size == 8
        before, _ = tracemalloc.get_traced_memory()
        for seed in range(30):
            exhaustive_parity_learner(oracle, 28, bud, random.Random(seed))
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        unreachable = gc.collect()
        if enabled:
            gc.enable()
    assert unreachable == 0
    assert after - before < 8192


# ---------------------------------------------------------------- greedy


def test_greedy_splits_on_dictator_first():
    # Labels equal coordinate 1; with 10**3 samples the first split must
    # pick it, across 100 seeded runs.
    for seed in range(100):
        oracle = parity_span_oracle(random.Random(seed), 4, index_set(1))
        tree = greedy_learner(
            oracle, 4, budget(size=16, depth=4, samples=1000), random.Random(seed)
        )
        assert isinstance(tree, Node)
        assert tree.coord == 1
        tt = truth_table(tree, 4)
        for ym in range(16):
            assert (tt >> ym) & 1 == ym & 1


def test_greedy_pure_sample_is_single_leaf():
    oracle = CycleOracle([("0110", 1)], 4)
    tree = greedy_learner(oracle, 4, budget(), random.Random(0))
    assert tree == Leaf(1)


def test_greedy_majority_tie_breaks_to_zero():
    # Two equally frequent labels on one point: no split helps, and the
    # tied majority resolves to 0.
    oracle = CycleOracle([("00", 1), ("00", 0)], 2)
    tree = greedy_learner(oracle, 2, budget(samples=10), random.Random(0))
    assert tree == Leaf(0)


def test_greedy_respects_budgets():
    rng = random.Random(41)
    for _ in range(20):
        n = rng.randint(2, 6)
        pairs = [
            (format(rng.getrandbits(n), f"0{n}b"), rng.getrandbits(1))
            for _ in range(8)
        ]
        oracle = CycleOracle(pairs, n)
        size_b = rng.choice([1, 2, 3, 5])
        depth_b = rng.randint(0, 3)
        tree = greedy_learner(
            oracle, n, LearnerBudget(size_b, depth_b, 64), random.Random(1)
        )
        assert tree.size <= size_b
        assert tree.depth <= depth_b


def test_greedy_bounds_its_splitting_before_sampling(monkeypatch):
    # Worst case 2 * min(size, samples) - 1 = 15 nodes, each reading 24
    # columns of 4 words (200 samples) at 6 steps a column.
    bud = LearnerBudget(8, 3, 200)
    estimate = 15 * 24 * 6
    assert learners._greedy_cost(24, bud) == estimate
    monkeypatch.setattr(learners, "SEARCH_MAX_COST", estimate)
    oracle = NoisyParityOracle(24, 0b11, 0.1)
    got = greedy_learner(oracle, 24, bud, random.Random(2))
    assert got == row_greedy_learner(oracle, 24, bud, random.Random(2))
    monkeypatch.setattr(learners, "SEARCH_MAX_COST", estimate - 1)
    with pytest.raises(ValueError, match=f"{estimate} steps, past SEARCH_MAX_COST"):
        greedy_learner(ExplodingOracle(), 24, bud, random.Random(2))
    # Fewer samples than the size budget: the sample bounds the nodes.
    # A column of 2000 samples (32 words) costs 6 + 2 steps.
    bud = LearnerBudget(1 << 20, 20, 2000)
    estimate = (2 * 2000 - 1) * 24 * 8
    assert learners._greedy_cost(24, bud) == estimate
    monkeypatch.setattr(learners, "SEARCH_MAX_COST", estimate - 1)
    with pytest.raises(ValueError, match=f"{estimate} steps, past SEARCH_MAX_COST"):
        greedy_learner(ExplodingOracle(), 24, bud, random.Random(2))


def row_greedy_learner(oracle, arity, budget, rng):
    """The greedy learner before it read packed columns: the sample as
    (mask, label) rows, each node's split counts taken row by row."""
    samples = [
        (point.mask, label)
        for point, label in (oracle.sample(rng) for _ in range(budget.sample_budget))
    ]
    splits_left = [budget.size_budget - 1]

    def majority(subset):
        ones = sum(label for _, label in subset)
        zeros = len(subset) - ones
        if ones > zeros:
            return 1, zeros
        return 0, ones

    def build(subset, used, depth):
        maj, err = majority(subset)
        if err == 0 or depth == budget.depth_budget or splits_left[0] == 0:
            return Leaf(maj)
        best_gain = 0
        best_coord = None
        for j in range(arity):
            bit = 1 << j
            if used & bit:
                continue
            lo_ones = lo_n = hi_ones = hi_n = 0
            for mask, label in subset:
                if mask & bit:
                    hi_n += 1
                    hi_ones += label
                else:
                    lo_n += 1
                    lo_ones += label
            split_err = min(lo_ones, lo_n - lo_ones) + min(hi_ones, hi_n - hi_ones)
            gain = err - split_err
            if gain > best_gain:
                best_gain, best_coord = gain, j
        if best_coord is None:
            return Leaf(maj)
        splits_left[0] -= 1
        bit = 1 << best_coord
        lo = [sv for sv in subset if not sv[0] & bit]
        hi = [sv for sv in subset if sv[0] & bit]
        low = build(lo, used | bit, depth + 1)
        high = build(hi, used | bit, depth + 1)
        return Node(best_coord + 1, low, high)

    return build(samples, 0, 0)


@given(learner_cases())
@settings(max_examples=300, deadline=None)
def test_greedy_matches_the_row_learner(case):
    # Span and finite-pmf oracles over random budgets.
    oracle, n, bud, seed = case
    got = greedy_learner(oracle, n, bud, random.Random(seed))
    assert got == row_greedy_learner(oracle, n, bud, random.Random(seed))


@pytest.mark.parametrize(
    "pairs",
    [
        [("0110", 1)],  # pure
        [("0000", 1), ("0000", 0)],  # majority tie, no split helps
        [("0001", 1), ("0001", 0), ("1000", 1), ("1000", 0)],  # ties on both sides
        [("0011", 1), ("0101", 0), ("1001", 1), ("1111", 0), ("0000", 1), ("1100", 0)],
    ],
)
@pytest.mark.parametrize("samples", [1, 2, 7, 64])
@pytest.mark.parametrize("size, depth", [(1, 4), (2, 4), (5, 2), (16, 4)])
def test_greedy_matches_the_row_learner_on_fixed_cycles(pairs, samples, size, depth):
    bud = LearnerBudget(size, depth, samples)
    got = greedy_learner(CycleOracle(pairs, 4), 4, bud, random.Random(0))
    assert got == row_greedy_learner(CycleOracle(pairs, 4), 4, bud, random.Random(0))


def test_greedy_matches_the_row_learner_on_noisy_parities():
    # Arity 24-28, up to 300 samples: deep trees with many equal gains.
    for oracle, arity, bud, seed in noisy_cases():
        bud = LearnerBudget(64, 6, bud.sample_budget)
        got = greedy_learner(oracle, arity, bud, random.Random(seed))
        assert got == row_greedy_learner(oracle, arity, bud, random.Random(seed)), seed


@given(
    st.integers(0, 70).flatmap(
        lambda arity: st.tuples(
            st.just(arity),
            st.lists(st.tuples(st.integers(0, (1 << arity) - 1), st.integers(0, 1)),
                     min_size=1, max_size=70),
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_sample_columns_matches_the_per_bit_loop(case):
    arity, pairs = case
    oracle = CycleOracle([(BitVector(arity, mask).to01(), label) for mask, label in pairs], arity)
    cols, label_col, nsamp = learners._sample_columns(
        oracle, arity, LearnerBudget(1, 0, len(pairs)), random.Random(0)
    )
    want_cols = [0] * arity
    want_labels = 0
    for row, (mask, label) in enumerate(pairs):
        bit = 1 << row
        if label:
            want_labels |= bit
        for j in range(arity):
            if mask >> j & 1:
                want_cols[j] |= bit
    assert (cols, label_col, nsamp) == (want_cols, want_labels, len(pairs))


def test_sample_columns_draws_in_the_oracle_order():
    # The packed sample consumes the rng exactly as one sample() call
    # per example would, so seeds keep their meaning.
    oracle = NoisyParityOracle(12, 0b101, 0.2)
    rng = random.Random(3)
    cols, label_col, nsamp = learners._sample_columns(oracle, 12, budget(samples=50), rng)
    replay = random.Random(3)
    rows = [oracle.sample(replay) for _ in range(50)]
    assert rng.random() == replay.random()
    assert nsamp == 50
    assert label_col == sum(label << r for r, (_, label) in enumerate(rows))
    assert cols == [
        sum((point.mask >> j & 1) << r for r, (point, _) in enumerate(rows))
        for j in range(12)
    ]


@pytest.mark.parametrize("arity", [2, 28, 200, 800])
def test_sample_columns_peaks_within_its_estimate(arity):
    # ``sample_bytes`` is what the pipelines check against
    # ``SAMPLE_MAX_BYTES`` before sampling.
    nsamp = 5000
    oracle = NoiseOracle(arity)
    tracemalloc.start()
    try:
        learners._sample_columns(oracle, arity, budget(samples=nsamp), random.Random(1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    estimate = learners.sample_bytes(arity, nsamp)
    assert estimate * 2 // 3 < peak <= estimate
