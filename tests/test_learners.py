"""Learners over example oracles: exhaustive parity fits and their sample path."""

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
    eval_tree,
)
from ncplift.f2 import BitMatrix, BitVector, rank
from ncplift.gadget import (
    GadgetOracle,
    GadgetParams,
    exact_lifted_tree_error,
    sample_bytes,
    span_lifted_tree_error,
)
from ncplift.instance import LabeledSet, _independent_rows
from ncplift.learners import (
    LearnerBudget,
    exhaustive_parity_learner,
    parity_to_tree,
)
from ncplift.span import exact_disagreement, make_span_oracle
from helpers import SampledPmf, complement_tree, planted_learner, random_labeled_basis


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
    return SampledPmf(pts, probs, labs, length)


def parity_span_oracle(rng, n, s):
    """Full-cube span with labels given by the parity over s."""
    points = tuple(BitVector(n, 1 << i) for i in range(n))
    labels = tuple(1 if (i + 1) in s else 0 for i in range(n))
    return make_span_oracle(LabeledSet(points, labels, n))


def budget(depth=4, samples=200):
    return LearnerBudget(depth, samples)


def unlifted(source):
    """A per-example source as a learner's oracle: the identity gadget
    (ell = 1), which packs its draws into columns and lifts nothing, so
    every sample and the next rng draw are the source's own."""
    return GadgetOracle(source, GadgetParams(1, source.length))


# ---------------------------------------------------------------- plumbing


def test_budget_validation():
    budget()
    with pytest.raises(ValueError):
        LearnerBudget(-1, 10)
    with pytest.raises(ValueError):
        LearnerBudget(1, 0)


def test_parity_to_tree_shapes():
    assert parity_to_tree(index_set()) == Leaf(0)
    assert parity_to_tree(index_set(3)) == Node(3, Leaf(0), Leaf(1))
    t = parity_to_tree(index_set(1, 2))
    assert t.size == 4 and t.depth == 2
    for ym in range(4):
        y = BitVector(2, ym)
        assert eval_tree(t, y) == (0b11 & ym).bit_count() & 1


def test_parity_tree_queries_ascending():
    t = parity_to_tree(index_set(2, 5))
    assert t == Node(
        2,
        Node(5, Leaf(0), Leaf(1)),
        Node(5, Leaf(1), Leaf(0)),
    )


def recursive_parity_tree(indices, pos=0, acc=0):
    """The parity tree built one fresh Node per tree node, 2**(d+1) - 1
    objects: the reference for the shared-node build."""
    if pos == len(indices):
        return Leaf(acc)
    return Node(
        indices[pos],
        recursive_parity_tree(indices, pos + 1, acc),
        recursive_parity_tree(indices, pos + 1, acc ^ 1),
    )


def distinct_nodes(*roots):
    """Objects reachable from the roots, each shared one counted once."""
    seen = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, Node):
                stack += (node.low, node.high)
    return len(seen)


@pytest.mark.parametrize("d", range(9))
def test_parity_tree_shares_its_nodes(d):
    # Equal to the one-node-per-tree-node build, size and depth alike,
    # from two Nodes per level over Leaf(0) and Leaf(1): 2d + 2 objects
    # for the tree and its complement together, 2d + 1 reachable from
    # either root once d >= 1.
    s = ParityIndexSet.from_iterable(random.Random(d).sample(range(1, 13), d))
    want = recursive_parity_tree(s.indices)
    tree = parity_to_tree(s)
    assert tree == want
    assert tree.size == want.size == 2**d
    assert tree.depth == want.depth == d
    plain, complemented = learners._parity_dags(s.indices)
    assert plain == want
    assert complemented == complement_tree(want)
    assert complemented.size == 2**d and complemented.depth == d
    assert distinct_nodes(plain, complemented) == 2 * d + 2
    assert distinct_nodes(tree) == distinct_nodes(complemented) == (2 * d + 1 if d else 1)


def test_complemented_labels_get_a_constant():
    # Every point of the cube labeled by the complement of chi_s: the
    # complemented parity over s fits every sample, but no parity does,
    # so the learner returns the better constant.
    s = index_set(2, 3, 5)
    points = [format(y, "05b") for y in range(32)]
    oracle = pmf_oracle(
        [(b, 1 ^ (s.mask & BitVector.from01(b).mask).bit_count() & 1, 1) for b in points], 5
    )
    tree = exhaustive_parity_learner(
        unlifted(oracle), budget(depth=3, samples=400), random.Random(1)
    )
    assert isinstance(tree, Leaf)
    assert tree == scan_learner(oracle, budget(depth=3, samples=400), random.Random(1))


def test_planted_learner_ignores_oracle():
    learner = planted_learner(index_set(1, 3))
    tree = learner(object(), budget(), random.Random(0))
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
            unlifted(oracle), budget(depth=3, samples=200), random.Random(seed)
        )
        if tree == parity_to_tree(s):
            hits += 1
    assert hits == 100


def test_exhaustive_depth_zero_returns_better_constant():
    oracle = pmf_oracle([("0", 1, 3), ("1", 0, 1)], 1)
    tree = exhaustive_parity_learner(
        unlifted(oracle), budget(depth=0, samples=400), random.Random(5)
    )
    assert tree == Leaf(1)


def test_exhaustive_is_deterministic_given_seed():
    rng_oracle = random.Random(7)
    oracle = unlifted(parity_span_oracle(rng_oracle, 6, index_set(2, 4)))
    a = exhaustive_parity_learner(oracle, budget(), random.Random(11))
    b = exhaustive_parity_learner(oracle, budget(), random.Random(11))
    assert a == b


def test_exhaustive_matches_independent_enumeration():
    # Replay the same sample and grade every candidate by hand: the
    # returned tree is the first zero-error parity in (size, lex) order,
    # or the better constant when none fits or the labels all agree.
    for seed in range(20):
        rng = random.Random(200 + seed)
        n = rng.randint(2, 6)
        masks = _independent_rows(rng, n, n).row_masks
        labels = tuple(rng.getrandbits(1) for _ in range(n))
        oracle = make_span_oracle(
            LabeledSet(tuple(BitVector(n, mk) for mk in masks), labels, n)
        )
        bud = budget(depth=min(n, 3), samples=64)
        tree = exhaustive_parity_learner(unlifted(oracle), bud, random.Random(seed))

        rng_replay = random.Random(seed)
        sample = [oracle.sample(rng_replay) for _ in range(bud.sample_budget)]
        fits = [
            s
            for size in range(0, min(n, 3) + 1)
            for picks in itertools.combinations(range(1, n + 1), size)
            for s in [ParityIndexSet.from_iterable(picks)]
            if all((s.mask & p.mask).bit_count() & 1 == lab for p, lab in sample)
        ]
        ones = sum(lab for _, lab in sample)
        if fits and ones < len(sample):
            want = parity_to_tree(fits[0])
        else:
            want = Leaf(1 if ones > len(sample) - ones else 0)
        assert tree == want


def test_exhaustive_prefers_smaller_support_on_ties():
    # Coordinate 2 is identically zero on the span, so the singleton
    # equals the pair on every sample; the smaller support wins.
    oracle = make_span_oracle(
        LabeledSet((BitVector.from01("10"),), (1,), 2)
    )
    tree = exhaustive_parity_learner(
        unlifted(oracle), budget(depth=2, samples=50), random.Random(3)
    )
    assert tree == parity_to_tree(index_set(1))


def test_exhaustive_hard_contract_on_random_oracles():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(2, 7)
        m = rng.randint(1, n)
        masks = _independent_rows(rng, n, m).row_masks
        oracle = make_span_oracle(
            LabeledSet(
                tuple(BitVector(n, mk) for mk in masks),
                tuple(rng.getrandbits(1) for _ in range(m)),
                n,
            )
        )
        depth_b = rng.randint(0, n)
        tree = exhaustive_parity_learner(
            unlifted(oracle), LearnerBudget(depth_b, 64), random.Random(rng.random())
        )
        assert tree.depth <= depth_b
        assert tree.size <= 1 << depth_b


def test_exhaustive_rejects_depth_beyond_arity():
    oracle = pmf_oracle([("0", 0, 1)], 1)
    with pytest.raises(ValueError):
        exhaustive_parity_learner(unlifted(oracle), budget(depth=2), random.Random(0))


def scan_learner(oracle, budget, rng):
    """The exhaustive learner's contract as one linear scan: a constant
    label column is its own constant; otherwise the first exact parity
    fit in (size, lex) order, else the better constant (1 only when ones
    outnumber zeros)."""
    arity = oracle.length
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
    ones = label_col.bit_count()
    if 0 < ones < nsamp:
        for size in range(budget.depth_budget + 1):
            for combo in itertools.combinations(range(arity), size):
                acc = 0
                for j in combo:
                    acc ^= cols[j]
                if acc == label_col:
                    return parity_to_tree(ParityIndexSet(tuple(j + 1 for j in combo)))
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
        oracle = SampledPmf(
            tuple(BitVector(n, p) for p in points),
            tuple(Fraction(w, sum(weights)) for w in weights),
            tuple(draw(st.integers(0, 1)) for _ in points),
            n,
        )
    bud = LearnerBudget(
        draw(st.integers(0, min(n, 6))),
        draw(st.sampled_from([1, 2, 3, 4, 6, 64])),
    )
    return oracle, n, bud, draw(st.integers(0, 1 << 32))


@given(learner_cases())
@settings(max_examples=300, deadline=None)
def test_exhaustive_matches_the_linear_scan(case):
    oracle, n, bud, seed = case
    got = exhaustive_parity_learner(unlifted(oracle), bud, random.Random(seed))
    assert got == scan_learner(oracle, bud, random.Random(seed))


FIXED_CYCLES = [
    [("0110", 1)],  # pure
    [("0000", 1), ("0000", 0)],  # majority tie, nothing fits
    [("0001", 1), ("0001", 0), ("1000", 1), ("1000", 0)],  # ties on both sides
    [("0011", 1), ("0101", 0), ("1001", 1), ("1111", 0), ("0000", 1), ("1100", 0)],
]


@pytest.mark.parametrize("pairs", FIXED_CYCLES)
@pytest.mark.parametrize("samples", [1, 2, 7, 64])
@pytest.mark.parametrize("depth", [0, 1, 2, 4])
def test_exhaustive_matches_the_row_learner_on_fixed_cycles(pairs, samples, depth):
    # The exhaustive learner, which reads packed columns, against the
    # row-by-row scan: a pure sample, constant ties that must break to
    # 0, and an exact fit cut short by the depth budget.
    bud = LearnerBudget(depth, samples)
    got = exhaustive_parity_learner(unlifted(CycleOracle(pairs, 4)), bud, random.Random(0))
    assert got == scan_learner(CycleOracle(pairs, 4), bud, random.Random(0))


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
    # better constant comes back, with no level or table built.
    with (
        mock.patch.object(f2, "_search", side_effect=AssertionError),
        mock.patch.object(f2, "_next_level", side_effect=AssertionError),
    ):
        tracemalloc.start()
        try:
            started = time.monotonic()
            tree = exhaustive_parity_learner(
                unlifted(NoiseOracle(80)), LearnerBudget(16, 256), random.Random(4)
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
        yield oracle, arity, LearnerBudget(4, samples), case


def test_exhaustive_matches_the_scan_on_noisy_labels():
    for oracle, arity, bud, seed in noisy_cases():
        got = exhaustive_parity_learner(unlifted(oracle), bud, random.Random(seed))
        assert got == scan_learner(oracle, bud, random.Random(seed)), seed


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
    masks = _independent_rows(rng, n, m).row_masks
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


def test_exhaustive_bounds_the_exact_fit_search(monkeypatch):
    # Arity 40 with 8 samples: columns of at most 8 bits leave a kernel
    # of dimension >= 32, so the search meets in the middle, and its
    # estimate is the meet in the middle's alone.  The labels are a
    # parity of three coordinates, so an exact fit exists.
    oracle = unlifted(NoisyParityOracle(40, 0b1011, 0.0))
    bud = LearnerBudget(4, 8)
    estimate = f2._mitm_cost(40, 4)
    monkeypatch.setattr(f2, "SEARCH_MAX_COST", estimate)
    tree = exhaustive_parity_learner(oracle, bud, random.Random(3))
    assert tree.depth <= 3
    monkeypatch.setattr(f2, "SEARCH_MAX_COST", estimate - 1)
    with mock.patch.object(f2, "_search", side_effect=AssertionError):
        with pytest.raises(ValueError, match="exact search too large"):
            exhaustive_parity_learner(oracle, bud, random.Random(3))


class UnsampledOracle:
    """An oracle of the given length whose sample must not be drawn,
    with ``labels`` as the label column it peeks."""

    def __init__(self, length, labels=0b10):
        self.length = length
        self.labels = labels

    def peek_labels(self, rng, count):
        return self.labels

    def sample_columns(self, rng, count):
        pytest.fail("sampled for a search that its shape already refuses")


def test_exhaustive_refuses_before_sampling():
    # The lifted shape of a (5000, 4000) instance at ell = 2 and k = 5:
    # 10000 columns of 2000 bits leave a kernel of dimension at least
    # 8000, and meeting in the middle up to size 10 is as far past the
    # bound, so the search is refused with no sample drawn.
    with pytest.raises(ValueError, match=r"exact search too large.*kernel dimension at least 8000"):
        exhaustive_parity_learner(UnsampledOracle(10000), LearnerBudget(10, 2000), random.Random(0))
    # The refusal needs both estimates past the bound: at depth 2 the
    # meet in the middle fits, and at 9990 samples so does the walk, so
    # both of these sample.
    for bud in (LearnerBudget(2, 2000), LearnerBudget(10, 9990)):
        with pytest.raises(pytest.fail.Exception):
            exhaustive_parity_learner(UnsampledOracle(10000), bud, random.Random(0))
    # Nor is a constant label column refused, all zeros or all ones, as
    # one label always is: its constant answers it with no search.
    for labels, bud in ((0, LearnerBudget(10, 2000)), ((1 << 2000) - 1, LearnerBudget(10, 2000)),
                        (1, LearnerBudget(10, 1))):
        with pytest.raises(pytest.fail.Exception):
            exhaustive_parity_learner(UnsampledOracle(10000, labels), bud, random.Random(0))


def test_exhaustive_fits_constant_labels_past_the_shape_bound():
    # At a shape the search refuses, labels that all agree still get the
    # constant they give after sampling: Leaf(0) over a span labeled 0,
    # and the one label's constant from one sample.
    rng = random.Random(5)
    masks = _independent_rows(rng, 400, 200).row_masks
    points = tuple(BitVector(400, mk) for mk in masks)
    zero = GadgetOracle(make_span_oracle(LabeledSet(points, (0,) * 200, 400)), GadgetParams(1, 400))
    assert exhaustive_parity_learner(zero, LearnerBudget(6, 300), random.Random(1)) == Leaf(0)
    labeled = GadgetOracle(make_span_oracle(LabeledSet(points, (1,) * 200, 400)), GadgetParams(1, 400))
    with pytest.raises(ValueError, match="exact search too large"):
        exhaustive_parity_learner(labeled, LearnerBudget(6, 300), random.Random(1))
    for seed in range(4):
        label = labeled.peek_labels(random.Random(seed), 1)
        assert exhaustive_parity_learner(labeled, LearnerBudget(6, 1), random.Random(seed)) == Leaf(label)


def test_error_scan_retains_no_memory():
    # With the cyclic collector off, anything caught in a reference cycle
    # (a table, a recursive closure) outlives its call.  Thirty calls at
    # arity 28 that each return a parity tree must create no unreachable
    # object and leave no memory behind.  The warm-up calls run traced,
    # so that objects parked in CPython's free lists are counted before.
    oracle = unlifted(NoisyParityOracle(28, 0b1011, 0.0))
    bud = LearnerBudget(3, 100)
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    tracemalloc.start()
    try:
        for seed in range(3):
            assert exhaustive_parity_learner(oracle, bud, random.Random(seed)).size == 8
        before, _ = tracemalloc.get_traced_memory()
        for seed in range(30):
            exhaustive_parity_learner(oracle, bud, random.Random(seed))
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        unreachable = gc.collect()
        if enabled:
            gc.enable()
    assert unreachable == 0
    assert after - before < 8192


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
    cols, label_col = unlifted(oracle).sample_columns(random.Random(0), len(pairs))
    want_cols = [0] * arity
    want_labels = 0
    for row, (mask, label) in enumerate(pairs):
        bit = 1 << row
        if label:
            want_labels |= bit
        for j in range(arity):
            if mask >> j & 1:
                want_cols[j] |= bit
    assert (cols, label_col) == (want_cols, want_labels)


def test_sample_columns_draws_in_the_oracle_order():
    # The packed sample consumes the rng exactly as one sample() call
    # per example would, so seeds keep their meaning.
    oracle = NoisyParityOracle(12, 0b101, 0.2)
    rng = random.Random(3)
    cols, label_col = unlifted(oracle).sample_columns(rng, 50)
    replay = random.Random(3)
    rows = [oracle.sample(replay) for _ in range(50)]
    assert rng.random() == replay.random()
    assert label_col == sum(label << r for r, (_, label) in enumerate(rows))
    assert cols == [
        sum((point.mask >> j & 1) << r for r, (point, _) in enumerate(rows))
        for j in range(12)
    ]


@pytest.mark.parametrize(
    "arity, ell, span_rows",
    [
        pytest.param(arity, ell, 0, id=f"{arity}-ell{ell}" if ell > 1 else f"{arity}")
        for arity, ell in [(2, 1), (28, 1), (200, 1), (800, 1), (14, 2), (2, 400), (1, 2000)]
    ]
    + [pytest.param(24, 2, 16, id="24-ell2-span16")],
)
def test_sample_columns_peaks_within_its_estimate(arity, ell, span_rows):
    # ``gadget.sample_bytes`` is what the pipelines check against
    # ``SAMPLE_MAX_BYTES`` before sampling.  A gadget over a plain
    # oracle: ell = 1 lifts nothing, so packing binds, (14, 2) as the
    # pipelines run it, (1, 2000) with lifting the larger phase, (2, 400)
    # near the point where the two phases cross.  span_rows: a gadget
    # over the span of that many rows, the pipelines' base, whose
    # sampling tables are built inside the measured call.
    nsamp = 5000
    base = NoiseOracle(arity)
    if span_rows:
        base = make_span_oracle(random_labeled_basis(random.Random(2), arity, span_rows))
    oracle = GadgetOracle(base, GadgetParams(ell, arity))
    tracemalloc.start()
    try:
        oracle.sample_columns(random.Random(1), nsamp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    estimate = sample_bytes(arity, nsamp, ell * arity)
    assert estimate * 2 // 3 < peak <= estimate
