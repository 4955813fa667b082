"""End-to-end pipelines: learn on lifted examples, decide or extract."""

import random
import signal
import time
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction

import pytest

from ncplift import learners, reduction
from ncplift.dtree import Leaf, Node, ParityIndexSet, path_masks, path_support_sets, reduce_tree
from ncplift.learners import parity_to_tree
from ncplift.f2 import BitMatrix, BitVector, mat_vec, rank
from ncplift.gadget import (
    FinitePmf,
    GadgetOracle,
    GadgetParams,
    exact_lifted_agreement,
    lift_parity,
)
from ncplift.instance import (
    LabeledSet,
    SyndromeInstance,
    brute_force_nearest,
    random_planted,
)
from ncplift.learners import (
    SAMPLE_MAX_BYTES,
    exhaustive_parity_learner,
    planted_learner,
    sample_bytes,
)
from ncplift.reduction import (
    PRUNE_CONSTANT,
    TREE_MAX_DEPTH,
    ReductionConfig,
    build_learning_instance,
    decide,
    extract_parity,
    search,
    verify_certificate,
)
from ncplift.span import make_span_oracle

CFG = ReductionConfig()


def index_set(*indices):
    return ParityIndexSet.from_iterable(indices)


def parity_lifted_oracle(n, s_star, ell=2):
    """Lifted oracle over the full cube labeled by the base parity."""
    points = tuple(BitVector(n, 1 << i) for i in range(n))
    labels = tuple(1 if (i + 1) in s_star else 0 for i in range(n))
    span = make_span_oracle(LabeledSet(points, labels, n))
    return GadgetOracle(span, GadgetParams(ell, n))


def vacuous_far_instance():
    # Identity system with an all-ones target: the unique solution has
    # weight 6, so nothing of sparsity <= 3 * 1 exists.  At
    # ell * alpha * k = 6 the error gate plus tolerance is -1/3, so no
    # threshold separates anything.
    inst = SyndromeInstance(
        BitMatrix.identity(6), BitVector.from01("111111"), 1, Fraction(3)
    )
    assert brute_force_nearest(inst, 3) is None
    return inst


def certified_far_instance(seed=4242):
    """n=14, m=12, k=2, alpha=3 (gate plus tolerance 1/12): a full-rank
    random system whose target no vector of weight <= 6 reaches."""
    rng = random.Random(seed)
    while True:
        masks = tuple(rng.getrandbits(14) for _ in range(12))
        if rank(BitMatrix(12, 14, masks)) < 12:
            continue
        inst = SyndromeInstance(
            BitMatrix(12, 14, masks), BitVector(12, rng.getrandbits(12)), 2, Fraction(3)
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
    for point, w, label in oracle.enumerate_weighted():
        assert w > 0
        assert label == lifted.chi(point)
        count += 1
    # One entry per span element and free fiber bit pattern.
    assert count == 1 << (4 + 5)


def test_build_learning_instance_rejects_contradiction():
    from ncplift.instance import UnsatisfiableInstanceError

    inst = SyndromeInstance(
        BitMatrix.from_rows(["11", "11"]), BitVector.from01("10"), 1, Fraction(1)
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


def refusing_learner(oracle, arity, budget, rng):
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
    # floor(ell*alpha*k/3) past ell*k = 4 is cut to 4; the learner gets
    # the same size budget, and a huge alpha builds no huge int.
    raw, _ = random_planted(14, 12, 2, 5)
    seen = []

    def recording_learner(oracle, arity, budget, rng):
        seen.append(budget.size_budget)
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
    monkeypatch.setattr(learners, "SEARCH_MAX_COST", 0)
    with pytest.raises(ValueError, match="exact search too large"):
        decide(inst, CFG, exhaustive_parity_learner, random.Random(0))


def test_decide_unsatisfiable():
    inst = SyndromeInstance(
        BitMatrix.from_rows(["11", "11"]), BitVector.from01("10"), 2, Fraction(3)
    )
    report = decide(inst, CFG, exhaustive_parity_learner, random.Random(0))
    assert not report.accepted
    assert report.reason == "unsatisfiable"


# ---------------------------------------------------------------- extraction


def test_extract_parity_from_its_own_tree():
    s_star = index_set(2, 4)
    oracle = parity_lifted_oracle(5, s_star)
    lifted = lift_parity(s_star, oracle.params)
    tree = parity_to_tree(lifted)
    ranked = extract_parity(tree, oracle)
    assert ranked[0] == (lifted, Fraction(1))
    # Every other candidate sits strictly below.
    for s, agr in ranked[1:]:
        assert agr < 1


def test_extract_constant_tree_is_balanced():
    oracle = parity_lifted_oracle(4, index_set(1, 3))
    ranked = extract_parity(Leaf(0), oracle)
    assert ranked == [(index_set(), Fraction(1, 2))]


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
    # Exact backend: scores equal the closed-form agreement and the
    # order follows (agreement desc, size asc, lexicographic).
    from ncplift.gadget import exact_lifted_agreement

    oracle = parity_lifted_oracle(4, index_set(2))
    tree = Node(1, Node(2, Leaf(0), Leaf(1)), Node(3, Leaf(1), Leaf(0)))
    ranked = extract_parity(tree, oracle)
    assert len(ranked) == len({s for s, _ in ranked})
    for s, agr in ranked:
        assert agr == exact_lifted_agreement(oracle.base, s, oracle.params)
    keys = [(-agr, len(s), s.indices) for s, agr in ranked]
    assert keys == sorted(keys)


def test_extract_exact_on_wide_span():
    # Past dimension 20, where span enumeration stops, agreements stay
    # exact: 1 for the lift of the planted parity, 1/2 for every other
    # candidate, and 1/2 for all candidates of a wrong fold.
    for n in (21, 24):
        s_star = index_set(1, n)
        oracle = parity_lifted_oracle(n, s_star)
        assert oracle.base.dimension == n
        planted = lift_parity(s_star, oracle.params)
        ranked = extract_parity(parity_to_tree(planted), oracle)
        assert len(ranked) == 16
        assert ranked[0] == (planted, Fraction(1))
        assert all(agr == Fraction(1, 2) for _, agr in ranked[1:])
        wrong = lift_parity(index_set(2, n), oracle.params)
        ranked = extract_parity(parity_to_tree(wrong), oracle)
        assert len(ranked) == 16
        assert all(agr == Fraction(1, 2) for _, agr in ranked)


def test_extract_depth_cap():
    deep = Leaf(0)
    for c in range(31, 0, -1):
        deep = Node(c, deep, Leaf(1))
    oracle = parity_lifted_oracle(16, index_set(1))
    with pytest.raises(ValueError):
        extract_parity(deep, oracle)


def test_extract_ranking_matches_the_fraction_sort():
    # extract_parity sorts on (agreement != 1, size, indices).  Over a
    # span every agreement is 1 or 1/2, so that is the order of the
    # key (-agreement, size, indices) on the exact agreements.
    rng = random.Random(29)
    for seed in range(40):
        n = rng.randint(4, 10)
        inst, x = random_planted(n, rng.randint(1, n), rng.randint(1, 3), seed)
        oracle = build_learning_instance(inst, ReductionConfig(ell=2))
        params = oracle.params
        planted = lift_parity(ParityIndexSet.from_mask(x.mask), params)
        sparse = rng.getrandbits(params.lifted_n) & rng.getrandbits(params.lifted_n)
        other = ParityIndexSet.from_mask(sparse)
        trees = [
            parity_to_tree(planted),
            parity_to_tree(other),
            reduce_tree(Node(1, parity_to_tree(planted), parity_to_tree(other))),
        ]
        for tree in trees:
            scored = [
                (s, exact_lifted_agreement(oracle.base, s, params))
                for s in path_support_sets(path_masks(tree))
            ]
            expected = sorted(scored, key=lambda item: (-item[1], len(item[0]), item[0].indices))
            assert extract_parity(tree, oracle) == expected


def test_extract_bounds_the_path_subsets(monkeypatch):
    # The bound counts sum 2**|P| over the distinct path sets P, at
    # most 2**TREE_MAX_DEPTH, here 8: the parity tree over {1, 2, 3} has
    # one path set and 8 subsets; path sets {1, 2} and {1, 3} give 4 + 4
    # (6 distinct subsets); adding {1, 3, 4} gives 16.
    monkeypatch.setattr(reduction, "TREE_MAX_DEPTH", 3)
    oracle = parity_lifted_oracle(4, index_set(1, 2))
    assert len(extract_parity(parity_to_tree(index_set(1, 2, 3)), oracle)) == 8
    two = Node(1, Node(2, Leaf(0), Leaf(1)), Node(3, Leaf(1), Leaf(0)))
    assert len(extract_parity(two, oracle)) == 6
    three = Node(1, Node(2, Leaf(0), Leaf(1)), Node(3, Node(4, Leaf(0), Leaf(1)), Leaf(0)))
    with pytest.raises(ValueError, match="16 path subsets, past 2\\*\\*TREE_MAX_DEPTH = 8"):
        extract_parity(three, oracle)


def test_extract_refuses_a_generic_tree_before_enumerating():
    # A complete depth-10 tree whose every node queries its own
    # coordinate: depth 10 is within TREE_MAX_DEPTH, but its 1024
    # distinct path sets of size 10 give 2**20 path subsets.  The
    # refusal walks the leaves only.
    coords = iter(range(1, 1 << 10))
    def build(depth):
        if depth == 0:
            return Leaf(0)
        return Node(next(coords), build(depth - 1), build(depth - 1))
    tree = build(10)
    oracle = parity_lifted_oracle(16, index_set(1))
    tracemalloc.start()
    try:
        started = time.monotonic()
        with pytest.raises(ValueError, match="TREE_MAX_DEPTH"):
            extract_parity(tree, oracle)
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


def test_search_with_planted_hint_returns_exact_vector():
    inst, x = random_planted(12, 8, 3, 77)
    params = GadgetParams(CFG.ell, 12)
    hint = planted_learner(lift_parity(index_set(*x.support()), params))
    report = search(inst, CFG, hint, random.Random(0))
    assert report.ok
    assert report.solution == x


def test_search_zero_target_returns_zero_vector():
    h = BitMatrix.from_rows(["1010", "0110"])
    inst = SyndromeInstance(h, BitVector.zeros(2), 1, Fraction(1))
    report = search(inst, CFG, exhaustive_parity_learner, random.Random(5))
    assert report.ok
    assert report.solution == BitVector.zeros(4)


def test_search_unsatisfiable():
    inst = SyndromeInstance(
        BitMatrix.from_rows(["11", "11"]), BitVector.from01("10"), 1, Fraction(1)
    )
    report = search(inst, CFG, exhaustive_parity_learner, random.Random(0))
    assert not report.ok
    assert report.reason == "unsatisfiable"


def test_search_learner_budget_failure(monkeypatch):
    # A learner that refuses its search raises through search, with no
    # report.
    inst, _ = random_planted(10, 6, 2, 13)
    monkeypatch.setattr(learners, "SEARCH_MAX_COST", 0)
    with pytest.raises(ValueError, match="exact search too large"):
        search(inst, CFG, exhaustive_parity_learner, random.Random(0))


def test_search_reports_unverified_candidates():
    # A constant hypothesis only offers the empty parity, which cannot
    # match a nonzero target.
    inst, _ = random_planted(10, 6, 2, 19)
    assert inst.t.mask != 0
    report = search(inst, CFG, planted_learner(index_set()), random.Random(0))
    assert not report.ok
    assert report.reason == "no-candidate-verified"
    assert report.candidates == 1


@contextmanager
def cpu_limit(seconds):
    """Raise TimeoutError once the process has used `seconds` more CPU."""
    def expire(signum, frame):
        raise TimeoutError(f"over {seconds} s of CPU")

    previous = signal.signal(signal.SIGPROF, expire)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def test_search_past_enumeration_cap_finishes():
    # Span dimensions 21..32 are beyond exhaustive span enumeration;
    # search must still finish and return a verified certificate.
    for n, m in ((28, 21), (32, 24), (40, 32)):
        inst, _x = random_planted(n, m, 2, 1)
        with cpu_limit(10):
            report = search(inst, CFG, exhaustive_parity_learner, random.Random(1))
        assert report.ok
        assert verify_certificate(inst, report.solution, PRUNE_CONSTANT * inst.k)


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


def test_search_bounds_ell_times_k_before_learning():
    # k = 1: ell = TREE_MAX_DEPTH is the deepest tree allowed.  A
    # planted one-coordinate hypothesis keeps the allowed run short.
    inst, _ = random_planted(8, 6, 1, 3)
    cfg = ReductionConfig(ell=TREE_MAX_DEPTH)
    search(inst, cfg, planted_learner(index_set(1)), random.Random(0))
    cfg = ReductionConfig(ell=TREE_MAX_DEPTH + 1)
    with pytest.raises(ValueError, match="TREE_MAX_DEPTH"):
        search(inst, cfg, refusing_learner, random.Random(0))


def test_decide_bounds_ell_times_k_before_learning():
    # As for search, on a k = 1 instance with alpha = 3, whose gate is
    # not vacuous at ell = TREE_MAX_DEPTH: the one-coordinate hypothesis
    # covers no block, so it sits at distance 1/2 and is rejected.
    raw, _ = random_planted(8, 6, 1, 3)
    inst = SyndromeInstance(raw.h, raw.t, raw.k, Fraction(3))
    cfg = ReductionConfig(ell=TREE_MAX_DEPTH)
    report = decide(inst, cfg, planted_learner(index_set(1)), random.Random(0))
    assert (report.reason, report.distance) == ("distance-gate", Fraction(1, 2))
    cfg = ReductionConfig(ell=TREE_MAX_DEPTH + 1)
    with pytest.raises(ValueError, match="TREE_MAX_DEPTH"):
        decide(inst, cfg, refusing_learner, random.Random(0))


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
    # Past both work bounds, both pipelines name the sample bound.
    inst, _ = random_planted(8, 6, 1, 3)
    ell = TREE_MAX_DEPTH + 1
    cfg = ReductionConfig(ell=ell, learner_samples=largest_sample_within_the_bound(8, ell) + 1)
    with pytest.raises(ValueError, match="SAMPLE_MAX_BYTES"):
        pipeline(inst, cfg, refusing_learner, random.Random(0))


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
    h = BitMatrix.from_rows(["110", "011"])
    inst = SyndromeInstance(h, BitVector.from01("10"), 1, Fraction(1))
    good = BitVector.from01("100")
    assert mat_vec(h, good) == inst.t
    assert verify_certificate(inst, good, 1)
    assert not verify_certificate(inst, BitVector.from01("010"), 1)  # wrong image
    assert not verify_certificate(inst, BitVector.from01("111"), 2)  # too heavy
    with pytest.raises(ValueError):
        verify_certificate(inst, BitVector.from01("10"), 1)
