"""End-to-end pipelines: learn on lifted examples, decide or extract."""

import random
import time
import tracemalloc
from fractions import Fraction

import pytest

from ncplift import f2, gadget, instance, reduction
from ncplift.dtree import (
    Leaf,
    Node,
    ParityIndexSet,
    path_masks,
    path_support_sets,
    prune,
)
from ncplift.f2 import BitVector, eliminate, mat_vec
from ncplift.gadget import (
    SAMPLE_MAX_BYTES,
    FinitePmf,
    GadgetOracle,
    GadgetParams,
    enumerate_lifted,
    exact_lifted_agreement,
    lift_parity,
    sample_bytes,
    span_lifted_tree_error,
    unlift_parity,
)
from ncplift.instance import (
    LabeledSet,
    SyndromeInstance,
    _independent_rows,
    brute_force_nearest,
    random_planted,
)
from ncplift.learners import exhaustive_parity_learner, parity_to_tree
from ncplift.reduction import (
    PRUNE_CONSTANT,
    ReductionConfig,
    SearchReport,
    build_learning_instance,
    decide,
    extract_parity,
    search,
    verify_certificate,
)
from ncplift.selftest import _far_instance
from ncplift.span import make_span_oracle
from helpers import cpu_limit, identity, matrix, planted_learner, reduce_tree

CFG = ReductionConfig()


def index_set(*indices):
    return ParityIndexSet.from_iterable(indices)


def parity_lifted_oracle(n, s_star, ell=2):
    """Lifted oracle over the full cube labeled by the base parity."""
    points = tuple(BitVector(n, 1 << i) for i in range(n))
    labels = tuple(1 if (i + 1) in s_star else 0 for i in range(n))
    span = make_span_oracle(LabeledSet(points, labels, n))
    return GadgetOracle(span, GadgetParams(ell, n))


def empty_span_oracle(n, ell=2):
    """Lifted oracle over a span with no rows, where every union of
    whole blocks solves the empty system."""
    return GadgetOracle(make_span_oracle(LabeledSet((), (), n)), GadgetParams(ell, n))


def vacuous_far_instance():
    # Identity system with an all-ones target: the unique solution has
    # weight 6, so nothing of sparsity <= 3 * 1 exists.  At
    # ell * alpha * k = 6 the error gate plus tolerance is -1/3, so no
    # threshold separates anything.
    inst = SyndromeInstance(
        identity(6), BitVector.from01("111111"), 1, Fraction(3)
    )
    assert brute_force_nearest(inst, 3) is None
    return inst


def certified_far_instance(seed=4242):
    """n=14, m=12, k=2, alpha=3 (gate plus tolerance 1/12): a full-rank
    random system whose target no vector of weight <= 6 reaches."""
    rng = random.Random(seed)
    while True:
        inst = SyndromeInstance(
            _independent_rows(rng, 14, 12),
            BitVector(12, rng.getrandbits(12)),
            2,
            Fraction(3),
        )
        if brute_force_nearest(inst, 6) is None:
            return inst


# ---------------------------------------------------------------- config


def test_config_validation():
    ReductionConfig()
    with pytest.raises(ValueError):
        ReductionConfig(ell=1)
    with pytest.raises(ValueError):
        ReductionConfig(learner_samples=0)


# ---------------------------------------------------------------- instances


def test_build_learning_instance_shape():
    inst, _x = random_planted(8, 5, 2, 17)
    oracle = build_learning_instance(inst, CFG)
    assert oracle.base.length == 8 and oracle.base.dimension == 5
    assert oracle.params.ell == 2
    assert oracle.length == 16


def test_lifted_labels_follow_planted_parity():
    # With labels planted on support x, every enumerated lifted example
    # is labeled by the lifted parity of that support.
    inst, x = random_planted(5, 4, 2, 23)
    oracle = build_learning_instance(inst, CFG)
    lifted = lift_parity(index_set(*x.support()), oracle.params)
    count = 0
    for point, w, label in enumerate_lifted(oracle.base, oracle.params):
        assert w > 0
        assert label == (lifted.mask & point.mask).bit_count() & 1
        count += 1
    # One entry per span element and free fiber bit pattern.
    assert count == 1 << (4 + 5)


def test_build_learning_instance_spans_the_kept_rows():
    # Row 3 is rows 1 + 2 with the matching label, so normalization
    # drops it, and the span over the two kept rows is what gets lifted.
    inst = SyndromeInstance(
        matrix("1100", "0110", "1010"), BitVector.from01("101"), 1, Fraction(1)
    )
    oracle = build_learning_instance(inst, CFG)
    span = oracle.base
    assert span.dimension == 2
    assert span.points == tuple(BitVector.from01(r).mask for r in ("1100", "0110"))
    assert span.labels == (1, 0)
    assert oracle.params == GadgetParams(CFG.ell, 4)


@pytest.mark.parametrize(
    "inst",
    [
        random_planted(40, 30, 3, 5)[0],
        # Row 3 is rows 1 + 2 with the matching label: a kernel to drop.
        SyndromeInstance(matrix("1100", "0110", "1010"), BitVector.from01("101"), 1, Fraction(1)),
    ],
    ids=["full-rank", "dependent-row"],
)
def test_build_learning_instance_eliminates_once(monkeypatch, inst):
    # Normalization eliminates H; the span of the rows it keeps is built
    # without a second elimination.  The public constructor still checks.
    calls = []

    def counted(original):
        def counting(vectors):
            calls.append(1)
            return original(vectors)
        return counting

    monkeypatch.setattr(f2, "eliminate", counted(f2.eliminate))
    monkeypatch.setattr(instance, "eliminate", counted(eliminate))
    oracle = build_learning_instance(inst, CFG)
    assert len(calls) == 1
    checked = make_span_oracle(LabeledSet(
        tuple(BitVector(oracle.base.length, p) for p in oracle.base.points),
        oracle.base.labels,
        oracle.base.length,
    ))
    assert len(calls) == 2
    assert (checked.length, checked.dimension, checked.points, checked.labels) == (
        oracle.base.length, oracle.base.dimension, oracle.base.points, oracle.base.labels,
    )
    rng_a, rng_b = random.Random(3), random.Random(3)
    assert [oracle.base.sample(rng_a) for _ in range(20)] == [checked.sample(rng_b) for _ in range(20)]


def test_build_learning_instance_rejects_contradiction():
    from ncplift.instance import UnsatisfiableInstanceError

    inst = SyndromeInstance(
        matrix("11", "11"), BitVector.from01("10"), 1, Fraction(1)
    )
    with pytest.raises(UnsatisfiableInstanceError):
        build_learning_instance(inst, CFG)


# ---------------------------------------------------------------- decide


def test_decide_thresholds_at_twelve():
    # ell * alpha * k = 12: size cap 2**4, gate exactly 0, tolerance
    # 2**-2 / 3.
    inst, _ = random_planted(14, 10, 2, 1)
    inst = SyndromeInstance(inst.h, inst.t, inst.k, Fraction(3))
    report = decide(inst, CFG, planted_learner(index_set()), random.Random(0))
    assert report.size_cap == 16
    assert report.error_gate == 0.0
    assert report.tolerance == 0.25 / 3.0


def test_decide_accepts_planted():
    for seed in (2, 5, 11):
        raw, _ = random_planted(14, 12, 2, seed)
        inst = SyndromeInstance(raw.h, raw.t, raw.k, Fraction(3))
        report = decide(
            inst, CFG, exhaustive_parity_learner, random.Random(100 + seed)
        )
        assert report.accepted
        assert report.reason == "ok-yes"
        assert report.hypothesis is not None
        assert report.hypothesis_size == report.hypothesis.size <= report.size_cap
        # The learned lift of the planted parity fits every lifted label.
        assert report.distance == 0


def test_decide_rejects_far_instance():
    report = decide(
        certified_far_instance(), CFG, planted_learner(index_set()), random.Random(3)
    )
    assert not report.accepted
    assert report.reason == "distance-gate"
    # Leaf(0) misses exactly half the lifted labels, far above the gate.
    assert report.distance == Fraction(1, 2)
    assert report.distance > report.error_gate + report.tolerance
    for seed in (1, 2, 3):
        report = decide(
            certified_far_instance(seed), CFG, exhaustive_parity_learner, random.Random(seed)
        )
        assert report.reason == "distance-gate"
        assert report.distance > report.error_gate + report.tolerance


def block_caterpillar(blocks):
    """The caterpillar along lifted coordinates 1 .. 2*blocks: size
    2*blocks + 1, and its path sets are the prefixes, of up to
    ``blocks`` whole blocks of width 2."""
    return caterpillar(list(range(1, 2 * blocks + 1)), 0, 0)


def caterpillar(coords, off, parity):
    """A spine querying ``coords`` in order, each node's low branch a
    leaf labeled ``off`` and its high branch the rest of the spine; the
    last node outputs its coordinate XOR ``parity``."""
    tree = Node(coords[-1], Leaf(parity), Leaf(1 - parity))
    for c in reversed(coords[:-1]):
        tree = Node(c, Leaf(off), tree)
    return tree


@pytest.mark.parametrize("ell", [2, 3])
def test_decide_far_side_caterpillars_stay_past_the_gate(ell):
    # The size lower bound that decide's gate rests on: on a far
    # instance, trees of size up to 2**(r/3), r = ell*alpha*k, stay at
    # distance at least 1/2 - 2**(-r/6) from the lifted source.  The
    # selftest's first far instance (n = 14, m = 12, k = 2, alpha = 3)
    # has four solutions, of weights 7, 8, 8 and 7, and a caterpillar
    # along the lift of each aims at it; a spine that would pass the
    # size cap is cut there.  The closest ones sit at 1/2 - 2**-14
    # (ell = 2) and 1/2 - 2**-21 (ell = 3).
    inst = _far_instance(random.Random(909), 14, 12, 2)
    cfg = ReductionConfig(ell=ell)
    size_cap, error_gate, tolerance = reduction._thresholds(inst, cfg)
    oracle = build_learning_instance(inst, cfg)
    elim = eliminate(inst.h.column_masks())
    residue, particular = elim.reduce(inst.t.mask)
    assert residue == 0
    solutions = [particular]
    for vec in elim.kernel:
        solutions += [s ^ vec for s in solutions]
    assert sorted(s.bit_count() for s in solutions) == [7, 7, 8, 8]
    r = ell * inst.alpha * inst.k
    bound = 0.5 - 2.0 ** -float(r / 6)
    best = Fraction(1, 2)
    for s in solutions:
        coords = lift_parity(ParityIndexSet.from_mask(s), oracle.params).indices[: size_cap - 1]
        for off in (0, 1):
            for parity in (0, 1):
                tree = caterpillar(coords, off, parity)
                assert tree.size <= size_cap
                distance = span_lifted_tree_error(tree, oracle.base, oracle.params)
                assert distance >= bound
                assert distance > error_gate + tolerance
                best = min(best, distance)
    assert best == Fraction(1, 2) - Fraction(1, 2 ** (7 * ell))


def refusing_learner(oracle, budget, rng):
    raise AssertionError("a vacuous gate must not run the learner")


def test_decide_vacuous_gate_skips_the_learner():
    # Gate plus tolerance -1/3 <= 0.
    report = decide(vacuous_far_instance(), CFG, refusing_learner, random.Random(0))
    assert (report.accepted, report.reason) == (False, "vacuous-gate")
    assert report.error_gate + report.tolerance <= 0
    assert report.hypothesis is None and report.distance is None
    # The README demo's alpha = 1 at k = 2: gate plus tolerance about
    # -0.55, size cap 2 below the 16 leaves of a depth-4 parity.
    raw, _ = random_planted(14, 10, 2, 7)
    report = decide(raw, CFG, refusing_learner, random.Random(0))
    assert report.reason == "vacuous-gate"
    # alpha = 11/4 at ell * k = 4: r = 11, so the gate plus tolerance is
    # positive (about 0.03) but the size cap 2**3 cannot hold a depth-4
    # parity tree.
    raw, _ = random_planted(14, 12, 2, 5)
    inst = SyndromeInstance(raw.h, raw.t, raw.k, Fraction(11, 4))
    report = decide(inst, CFG, refusing_learner, random.Random(0))
    assert report.error_gate + report.tolerance > 0
    assert report.size_cap == 8
    assert report.reason == "vacuous-gate"


def test_decide_size_gate():
    # A planted hypothesis of depth 5 has size 32 over cap 16.
    raw, _ = random_planted(14, 10, 2, 7)
    inst = SyndromeInstance(raw.h, raw.t, raw.k, Fraction(3))
    big = index_set(1, 3, 5, 7, 9)
    report = decide(inst, CFG, planted_learner(big), random.Random(0))
    assert not report.accepted
    assert report.reason == "size-gate"
    assert report.hypothesis_size == 32
    assert report.distance is None


def test_decide_size_cap_stops_at_the_depth_budget():
    # floor(ell*alpha*k/3) past ell*k = 4 is cut to 4, the size the
    # learner's depth budget allows, and a huge alpha builds no huge int.
    raw, _ = random_planted(14, 12, 2, 5)
    seen = []

    def recording_learner(oracle, budget, rng):
        seen.append(1 << budget.depth_budget)
        return parity_to_tree(index_set())

    for alpha, cap in ((Fraction(3), 16), (Fraction(4), 16), (Fraction(10**20), 16)):
        inst = SyndromeInstance(raw.h, raw.t, raw.k, alpha)
        report = decide(inst, CFG, recording_learner, random.Random(0))
        assert report.size_cap == cap == seen[-1]
    assert report.error_gate + report.tolerance == 0.5


def test_decide_learner_failure(monkeypatch):
    # A learner that refuses its search raises through decide, so a
    # refusal never reads as a NO.
    raw, _ = random_planted(10, 6, 2, 9)
    inst = SyndromeInstance(raw.h, raw.t, raw.k, Fraction(3))
    monkeypatch.setattr(f2, "SEARCH_MAX_COST", 0)
    with pytest.raises(ValueError, match="exact search too large"):
        decide(inst, CFG, exhaustive_parity_learner, random.Random(0))


def test_decide_unsatisfiable():
    inst = SyndromeInstance(
        matrix("11", "11"), BitVector.from01("10"), 2, Fraction(3)
    )
    report = decide(inst, CFG, exhaustive_parity_learner, random.Random(0))
    assert not report.accepted
    assert report.reason == "unsatisfiable"


# ---------------------------------------------------------------- extraction


def agreeing_path_subsets(tree, oracle):
    """Oracle for ``extract_parity``: every subset of the tree's path
    sets, in (size, lex) order, kept when its exact agreement with the
    lifted source is 1."""
    return [
        s
        for s in path_support_sets(path_masks(tree))
        if exact_lifted_agreement(oracle.base, s, oracle.params) == 1
    ]


def test_extract_parity_from_its_own_tree():
    # The tree's own parity is the one candidate: every other subset of
    # its path set sits at 1/2.
    s_star = index_set(2, 4)
    oracle = parity_lifted_oracle(5, s_star)
    lifted = lift_parity(s_star, oracle.params)
    tree = parity_to_tree(lifted)
    assert extract_parity(tree, oracle) == [lifted] == agreeing_path_subsets(tree, oracle)
    assert len(path_support_sets(path_masks(tree))) == 16


def test_extract_constant_tree_is_balanced():
    # The empty parity, the constant tree's only path subset, sits at
    # 1/2 against a nonzero target, so nothing is extracted.
    oracle = parity_lifted_oracle(4, index_set(1, 3))
    assert exact_lifted_agreement(oracle.base, index_set(), oracle.params) == Fraction(1, 2)
    assert extract_parity(Leaf(0), oracle) == []


def test_extract_refuses_a_base_that_is_not_a_span():
    # Over a finite distribution the span dichotomy does not hold, so
    # its closed-form agreements would be wrong.
    n = 3
    points = tuple(BitVector(n, 1 << i) for i in range(n))
    pmf = FinitePmf(points, (Fraction(1, 3),) * n, (1, 0, 0), n)
    oracle = GadgetOracle(pmf, GadgetParams(2, n))
    with pytest.raises(ValueError, match="needs a span base, not FinitePmf"):
        extract_parity(parity_to_tree(index_set(1, 2)), oracle)


def test_extract_ranking_is_total_and_exact():
    # One labeled point, x1 + x2 with label 1, and x3 with label 0: the
    # solutions of H s = t at n = 4 are {1}, {2}, {1, 4} and {2, 4}.
    # The path set {1, 2, 3, 4, 7, 8} holds all four lifts, which come
    # back at agreement 1 in (size, lex) order.
    n = 4
    points = (BitVector(n, 0b0011), BitVector(n, 0b0100))
    span = make_span_oracle(LabeledSet(points, (1, 0), n))
    oracle = GadgetOracle(span, GadgetParams(2, n))
    tree = parity_to_tree(index_set(1, 2, 3, 4, 7, 8))
    found = extract_parity(tree, oracle)
    assert found == [index_set(1, 2), index_set(3, 4), index_set(1, 2, 7, 8), index_set(3, 4, 7, 8)]
    assert found == agreeing_path_subsets(tree, oracle)


def test_extract_exact_on_wide_span():
    # Past dimension 20, where span enumeration stops, extraction stays
    # exact: the lift of the planted parity is the one subset of its
    # path set at agreement 1, and a wrong fold has none.
    for n in (21, 24):
        s_star = index_set(1, n)
        oracle = parity_lifted_oracle(n, s_star)
        assert oracle.base.dimension == n
        planted = lift_parity(s_star, oracle.params)
        assert extract_parity(parity_to_tree(planted), oracle) == [planted]
        wrong = lift_parity(index_set(2, n), oracle.params)
        assert extract_parity(parity_to_tree(wrong), oracle) == []


def test_extract_depth_cap():
    # Depth alone caps nothing: the unions are bounded.  Over the
    # identity system the depth-31 caterpillar has one solution union,
    # the lift of {1}, and it is extracted.  Over a span with no rows,
    # the depth-32 caterpillar's prefixes of 0 .. 16 whole blocks hold
    # 2**17 - 1 unions, past UNIONS_MAX.
    deep = Leaf(0)
    for c in range(31, 0, -1):
        deep = Node(c, deep, Leaf(1))
    oracle = parity_lifted_oracle(16, index_set(1))
    assert extract_parity(deep, oracle) == [index_set(1, 2)]
    with pytest.raises(ValueError, match=f"{2**17 - 1} solution unions"):
        extract_parity(block_caterpillar(16), empty_span_oracle(16))


def random_block_tree(rng, blocks, ell, depth):
    """A reduced tree of depth at most ``depth`` over the lifted
    coordinates of the given base blocks, so that its several path sets
    often hold whole blocks."""
    coords = [b * ell + j + 1 for b in blocks for j in range(ell)]

    def build(level):
        if level == depth or rng.random() < 0.15:
            return Leaf(rng.getrandbits(1))
        return Node(rng.choice(coords), build(level + 1), build(level + 1))

    return reduce_tree(build(0))


def test_extract_matches_the_agreement_filter():
    # Differential: on random generic trees with several path sets, and
    # on systems with several solutions, extraction returns exactly the
    # path subsets at agreement 1, in (size, lex) order.
    rng = random.Random(29)
    several = found = 0
    for seed in range(60):
        n = rng.randint(3, 7)
        inst, x = random_planted(n, rng.randint(1, n), rng.randint(1, 3), seed)
        oracle = build_learning_instance(inst, ReductionConfig(ell=2))
        planted = parity_to_tree(lift_parity(ParityIndexSet.from_mask(x.mask), oracle.params))
        blocks = rng.sample(range(n), min(n, 3))
        for tree in (
            random_block_tree(rng, blocks, 2, 6),
            reduce_tree(Node(rng.randint(1, 2 * n), planted, random_block_tree(rng, blocks, 2, 5))),
        ):
            want = agreeing_path_subsets(tree, oracle)
            assert extract_parity(tree, oracle) == want
            several += len(path_masks(tree)) > 1
            found += len(want) > 1
    assert several >= 100 and found >= 20


def test_extract_bounds_the_path_subsets(monkeypatch):
    # The bound counts the solution unions, 2**(|W| - rank) for each
    # solvable set W of whole blocks, here at most 4.  Over a span with
    # no rows every union of whole blocks solves: the parity tree over
    # blocks 1 and 2 has one path set and 4 unions, all extracted.  A
    # second path set with block 1 whole adds 2, and the 6 are refused.
    monkeypatch.setattr(gadget, "UNIONS_MAX", 4)
    oracle = empty_span_oracle(3)
    both = parity_to_tree(index_set(1, 2, 3, 4))
    want = [index_set(), index_set(1, 2), index_set(3, 4), index_set(1, 2, 3, 4)]
    assert extract_parity(both, oracle) == want
    two = Node(5, both, parity_to_tree(index_set(1, 2)))
    with pytest.raises(ValueError, match="6 solution unions, past UNIONS_MAX = 4"):
        extract_parity(two, oracle)


def test_extract_refuses_a_generic_tree_before_enumerating():
    # A complete depth-10 tree whose every node queries its own
    # coordinate has 512 distinct path sets of size 10, 2**19 path
    # subsets, but over the identity system each set of whole blocks
    # solves at most once: extraction returns the one lift.  Over a span
    # with no rows, the caterpillar over 20 whole blocks holds 2**21 - 1
    # solution unions, and is refused before any is built.
    coords = iter(range(1, 1 << 10))
    def build(depth):
        if depth == 0:
            return Leaf(0)
        return Node(next(coords), build(depth - 1), build(depth - 1))
    tree = build(10)
    assert len(path_masks(tree)) == 512
    assert extract_parity(tree, parity_lifted_oracle(512, index_set(1))) == [index_set(1, 2)]
    oracle = empty_span_oracle(20)
    tracemalloc.start()
    try:
        started = time.monotonic()
        with pytest.raises(ValueError, match=f"{2**21 - 1} solution unions"):
            extract_parity(block_caterpillar(20), oracle)
        elapsed = time.monotonic() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 2**20


# ---------------------------------------------------------------- search


def test_search_recovers_planted_solution():
    inst, x = random_planted(14, 10, 2, 1)
    report = search(inst, CFG, exhaustive_parity_learner, random.Random(7000001))
    assert report.ok
    assert report.solution == x
    assert report.reason == "ok"
    assert verify_certificate(inst, report.solution, PRUNE_CONSTANT * inst.k)
    assert report.hypothesis is not None
    assert report.hypothesis.depth <= report.pruned_depth


def test_search_at_sixteen_samples_is_not_pre_empted_by_a_complement():
    # Planted (14, 10, 2), seed 2, 16 samples: the complement of the label
    # column is the XOR of lifted columns 8, 9, 17 and 26, which comes
    # before the solution's lift, columns 23 to 26, in (size, lex)
    # order.  A complemented parity sits at lifted distance 1/2 and
    # yields no candidate; the learner fits the label column alone, so
    # it returns the lift and the search verifies the planted vector.
    inst, x = random_planted(14, 10, 2, 2)
    cfg = ReductionConfig(learner_samples=16)
    cols, labels = build_learning_instance(inst, cfg).sample_columns(random.Random(2), 16)
    lift = cols[22] ^ cols[23] ^ cols[24] ^ cols[25]
    assert lift == labels and cols[7] ^ cols[8] ^ cols[16] ^ cols[25] == labels ^ 0xFFFF
    report = search(inst, cfg, exhaustive_parity_learner, random.Random(2))
    assert report.solution == x
    assert report.hypothesis == parity_to_tree(index_set(23, 24, 25, 26))


def test_search_with_planted_hint_returns_exact_vector():
    inst, x = random_planted(12, 8, 3, 77)
    params = GadgetParams(CFG.ell, 12)
    hint = planted_learner(lift_parity(index_set(*x.support()), params))
    report = search(inst, CFG, hint, random.Random(0))
    assert report.ok
    assert report.solution == x


def test_search_zero_target_returns_zero_vector():
    h = matrix("1010", "0110")
    inst = SyndromeInstance(h, BitVector(2, 0), 1, Fraction(1))
    report = search(inst, CFG, exhaustive_parity_learner, random.Random(5))
    assert report.ok
    assert report.solution == BitVector(4, 0)


def test_search_unsatisfiable():
    inst = SyndromeInstance(
        matrix("11", "11"), BitVector.from01("10"), 1, Fraction(1)
    )
    report = search(inst, CFG, exhaustive_parity_learner, random.Random(0))
    assert not report.ok
    assert report.reason == "unsatisfiable"


def test_search_learner_budget_failure(monkeypatch):
    # A learner that refuses its search raises through search, with no
    # report.
    inst, _ = random_planted(10, 6, 2, 13)
    monkeypatch.setattr(f2, "SEARCH_MAX_COST", 0)
    with pytest.raises(ValueError, match="exact search too large"):
        search(inst, CFG, exhaustive_parity_learner, random.Random(0))


def test_search_reports_unverified_candidates():
    # A constant hypothesis only holds the empty parity, which cannot
    # match a nonzero target, so nothing is extracted.
    inst, _ = random_planted(10, 6, 2, 19)
    assert inst.t.mask != 0
    report = search(inst, CFG, planted_learner(index_set()), random.Random(0))
    assert not report.ok
    assert report.reason == "no-candidate-verified"
    assert report.candidates == 0


def test_search_past_enumeration_cap_finishes():
    # Span dimensions 21..32 are beyond exhaustive span enumeration;
    # search must still finish and return a verified certificate.
    for n, m in ((28, 21), (32, 24), (40, 32)):
        inst, _x = random_planted(n, m, 2, 1)
        with cpu_limit(10):
            report = search(inst, CFG, exhaustive_parity_learner, random.Random(1))
        assert report.ok
        assert verify_certificate(inst, report.solution, PRUNE_CONSTANT * inst.k)


def test_search_at_depth_twenty_four_solves_for_its_candidates():
    # k = 12 at ell = 2: the pruned tree's one path set has 2**24
    # subsets, and extraction solves for the one at agreement 1 instead
    # of listing them.  CPU time, so a busy host does not fail it.
    inst, x = random_planted(72, 54, 12, 1)
    with cpu_limit(10):
        report = search(inst, CFG, exhaustive_parity_learner, random.Random(1))
    assert report.hypothesis.depth == 24
    assert (report.solution, report.candidates) == (x, 1)


def test_search_many_planted_seeds():
    hits = 0
    for seed in range(1, 26):
        inst, _x = random_planted(14, 10, 2, seed)
        report = search(
            inst, CFG, exhaustive_parity_learner, random.Random(7_000_000 + seed)
        )
        if report.ok:
            assert verify_certificate(
                inst, report.solution, PRUNE_CONSTANT * inst.k
            )
            assert mat_vec(inst.h, report.solution) == inst.t
            hits += 1
    assert hits >= 24


def search_by_the_loop(inst, cfg, learner, rng):
    """Oracle for ``search``: every candidate folded in turn, the first
    whose fold verifies returned, and ceil(log2(size)) from the bit
    length and a power-of-two test."""
    reduction._check_work(inst, cfg)
    learned = reduction._learn(inst, cfg, learner, rng)
    if learned is None:
        return SearchReport(None, "unsatisfiable", None, None, 0)
    oracle, tree = learned
    log_size = max(1, tree.size).bit_length() - 1
    if 1 << log_size != tree.size:
        log_size += 1
    prune_depth = PRUNE_CONSTANT * log_size
    pruned = prune(tree, prune_depth)
    candidates = extract_parity(pruned, oracle)
    for s in candidates:
        x = BitVector.from_support(unlift_parity(s, oracle.params).indices, inst.n)
        if verify_certificate(inst, x, prune_depth // cfg.ell):
            return SearchReport(x, "ok", tree.size, prune_depth, len(candidates), pruned)
    return SearchReport(None, "no-candidate-verified", tree.size, prune_depth, len(candidates), pruned)


def test_one_check_search_matches_the_candidate_loop():
    # Differential: planted searches with the exhaustive learner, and
    # random generic trees over a few blocks from a custom learner, on
    # systems with several solutions.  Checking the first candidate
    # alone gives the report the loop over all of them gives.
    rng = random.Random(37)
    runs = [(random_planted(14, 10, 2, seed)[0], CFG, exhaustive_parity_learner) for seed in range(8)]
    for seed in range(300):
        n = rng.randint(3, 7)
        inst, _ = random_planted(n, rng.randint(1, n), rng.randint(1, 3), seed)
        cfg = ReductionConfig(ell=rng.choice([2, 3]))
        blocks = rng.sample(range(n), min(n, 3))
        depth = rng.randint(1, 7)

        def learner(oracle, budget, rng, blocks=blocks, depth=depth):
            return random_block_tree(rng, blocks, oracle.params.ell, depth)

        runs.append((inst, cfg, learner))
    reports = []
    for seed, (inst, cfg, learner) in enumerate(runs):
        want = search_by_the_loop(inst, cfg, learner, random.Random(seed))
        assert search(inst, cfg, learner, random.Random(seed)) == want
        reports.append(want)
    # Every candidate verifies, so a report fails only with none.
    assert all(r.ok == (r.candidates > 0) for r in reports)
    assert sum(r.ok for r in reports) >= 75 and sum(r.candidates > 1 for r in reports) >= 20


# ---------------------------------------------------------------- certificates


def largest_sample_within_the_bound(n, ell):
    """Largest sample the pipelines accept at base arity n, lifted by
    ell; ``sample_bytes`` grows with the sample size."""
    lo, hi = 0, SAMPLE_MAX_BYTES
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if sample_bytes(n, mid, ell * n) <= SAMPLE_MAX_BYTES:
            lo = mid
        else:
            hi = mid - 1
    return lo


def deep_planted_instance():
    """Planted (14, 12, 7) at alpha 3, seed 8001: at ell = 200 the
    learner's parity DAG has depth 1400, 2**1400 leaves on 2801 nodes,
    and the 3000 samples outnumber the 2800 lifted columns."""
    raw, x = random_planted(14, 12, 7, 8001)
    return SyndromeInstance(raw.h, raw.t, raw.k, Fraction(3)), x


def test_search_answers_on_a_depth_1400_tree():
    # No bound on ell*k: every tree walk costs the DAG's distinct nodes,
    # so a depth-1400 tree is searched as fast as its 2801 nodes allow.
    inst, x = deep_planted_instance()
    cfg = ReductionConfig(ell=200, learner_samples=3000)
    with cpu_limit(10):
        report = search(inst, cfg, exhaustive_parity_learner, random.Random(0))
    assert (report.hypothesis.depth, report.pruned_depth) == (1400, 4200)
    assert (report.solution, report.candidates) == (x, 1)
    assert verify_certificate(inst, report.solution, inst.k)


def test_decide_answers_on_a_depth_1400_tree():
    # As for search: the exact distance of the depth-1400 parity DAG is
    # one walk over its nodes per solution union, and the size cap
    # 2**1400 holds its 2**1400 leaves.
    inst, _ = deep_planted_instance()
    cfg = ReductionConfig(ell=200, learner_samples=3000)
    with cpu_limit(10):
        report = decide(inst, cfg, exhaustive_parity_learner, random.Random(0))
    assert report.hypothesis.depth == 1400
    assert (report.reason, report.distance) == ("ok-yes", 0)


def test_decide_at_depth_twenty_two_on_the_gate_instance():
    # The gate instance at ell = 11: the learner's parity DAG has depth
    # 22 and 2**22 paths, and the tree error sums the coefficient of its
    # one solution union, a walk over its 45 nodes.  CPU time, so a busy
    # host does not fail it.
    raw, _ = random_planted(14, 12, 2, 8001)
    inst = SyndromeInstance(raw.h, raw.t, raw.k, Fraction(3))
    started = time.process_time()
    report = decide(inst, ReductionConfig(ell=11), exhaustive_parity_learner, random.Random(2))
    assert time.process_time() - started < 0.1
    assert report.hypothesis.depth == 22
    assert (report.reason, report.distance) == ("ok-yes", 0)


def test_decide_at_depth_thirty_two_solves_for_its_unions():
    # k = 16 at ell = 2: the learner's parity DAG has depth 32 and its
    # one path set 16 whole blocks.  The tree error's unions come from
    # one elimination of those 16 columns, not a scan of their 2**16
    # unions.
    raw, _ = random_planted(34, 33, 16, 5)
    inst = SyndromeInstance(raw.h, raw.t, raw.k, Fraction(3))
    started = time.process_time()
    report = decide(inst, CFG, exhaustive_parity_learner, random.Random(1))
    assert time.process_time() - started < 0.1
    assert report.hypothesis.depth == 32
    assert (report.reason, report.distance) == ("ok-yes", 0)


def test_decide_bounds_the_solution_unions():
    # An m = 1 system at alpha 3: the caterpillar over 20 whole blocks
    # has size 41, inside the size cap 2**16, but each prefix W of
    # whole blocks holds 2**(|W| - rank) solution unions, about 2**20
    # in all.  Decide refuses it naming the count, before building any
    # union; extraction gives the same refusal.
    raw, _ = random_planted(24, 1, 8, 1)
    inst = SyndromeInstance(raw.h, raw.t, raw.k, Fraction(3))
    row, = inst.h.row_masks
    want = 0
    for w in range(21):
        restricted = row & ((1 << w) - 1)
        if restricted or not inst.t.mask:
            want += 1 << (w - 1 if restricted else w)
    tree = block_caterpillar(20)
    assert tree.size == 41 <= reduction._thresholds(inst, CFG)[0]
    with cpu_limit(1), pytest.raises(ValueError) as refusal:
        decide(inst, CFG, lambda oracle, budget, rng: tree, random.Random(0))
    assert str(refusal.value) == f"would build {want} solution unions, past UNIONS_MAX = 65536"
    with pytest.raises(ValueError) as again:
        extract_parity(tree, build_learning_instance(inst, CFG))
    assert str(again.value) == str(refusal.value)


@pytest.mark.parametrize("pipeline", [search, decide])
def test_pipelines_bound_the_sample_before_sampling(pipeline):
    # The planted learner draws nothing, so the largest sample within
    # the bound is accepted without being allocated; one more example
    # is refused before the learner runs.
    raw, _ = random_planted(14, 12, 2, 5)
    inst = SyndromeInstance(raw.h, raw.t, raw.k, Fraction(3))
    most = largest_sample_within_the_bound(14, CFG.ell)
    assert sample_bytes(14, most + 1, CFG.ell * 14) > SAMPLE_MAX_BYTES
    cfg = ReductionConfig(learner_samples=most)
    pipeline(inst, cfg, planted_learner(index_set()), random.Random(0))
    cfg = ReductionConfig(learner_samples=most + 1)
    with pytest.raises(ValueError, match="SAMPLE_MAX_BYTES"):
        pipeline(inst, cfg, refusing_learner, random.Random(0))


@pytest.mark.parametrize("pipeline", [search, decide])
def test_pipelines_check_the_sample_bound_first(pipeline):
    # A sample one example past the bound, at a block width that lifts
    # the learner's tree to depth 17, is refused naming the sample bound.
    inst, _ = random_planted(8, 6, 1, 3)
    ell = 17
    cfg = ReductionConfig(ell=ell, learner_samples=largest_sample_within_the_bound(8, ell) + 1)
    with pytest.raises(ValueError, match="SAMPLE_MAX_BYTES"):
        pipeline(inst, cfg, refusing_learner, random.Random(0))


@pytest.mark.parametrize("pipeline", [search, decide])
def test_pipelines_refuse_a_sparsity_past_n_first(pipeline):
    # k = n + 1 is refused before the thresholds, the sample bound and
    # the learner, on a consistent system and on one that would
    # otherwise be reported unsatisfiable.
    raw, _ = random_planted(14, 12, 2, 5)
    consistent = SyndromeInstance(raw.h, raw.t, 15, Fraction(3))
    inconsistent = SyndromeInstance(matrix("11", "11"), BitVector.from01("10"), 3, Fraction(3))
    for inst in (consistent, inconsistent):
        with pytest.raises(ValueError, match=r"sparsity k = \d+ exceeds the number of coordinates"):
            pipeline(inst, CFG, refusing_learner, random.Random(0))
    # k = n still runs.
    pipeline(SyndromeInstance(raw.h, raw.t, 14, Fraction(3)), CFG, planted_learner(index_set()), random.Random(0))


class JumpingClock:
    """Stand-in for ``time.monotonic``: each reading an hour past the
    last."""

    def __init__(self, real):
        self.real = real
        self.readings = 0

    def __call__(self):
        self.readings += 1
        return self.real() + 3600 * self.readings


def test_reports_do_not_depend_on_the_clock(monkeypatch):
    # Planted searches and decides, and far decides where the learner
    # finds no exact fit: the reports are the same however the clock
    # moves.
    def runs():
        reports = []
        learner = exhaustive_parity_learner
        for seed in (1, 2):
            inst, _ = random_planted(14, 10, 2, seed)
            reports.append(search(inst, CFG, learner, random.Random(seed)))
            raw, _ = random_planted(14, 12, 2, seed)
            inst = SyndromeInstance(raw.h, raw.t, raw.k, Fraction(3))
            reports.append(decide(inst, CFG, learner, random.Random(seed)))
            far = certified_far_instance(seed)
            reports.append(decide(far, CFG, learner, random.Random(seed)))
        return reports

    want = runs()
    assert {r.reason for r in want} >= {"ok", "ok-yes", "distance-gate"}
    clock = JumpingClock(time.monotonic)
    monkeypatch.setattr(time, "monotonic", clock)
    assert runs() == want


def test_verify_certificate():
    h = matrix("110", "011")
    inst = SyndromeInstance(h, BitVector.from01("10"), 1, Fraction(1))
    good = BitVector.from01("100")
    assert mat_vec(h, good) == inst.t
    assert verify_certificate(inst, good, 1)
    assert not verify_certificate(inst, BitVector.from01("010"), 1)  # wrong image
    assert not verify_certificate(inst, BitVector.from01("111"), 2)  # too heavy
    with pytest.raises(ValueError):
        verify_certificate(inst, BitVector.from01("10"), 1)
