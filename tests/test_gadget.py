"""Blockwise parity lifting: folding, fibers, and exact closed forms."""

import itertools
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from ncplift import gadget
from ncplift.dtree import Leaf, Node, ParityIndexSet, path_masks
from ncplift.f2 import BitMatrix, BitVector, eliminate, mat_vec, rank
from ncplift.gadget import (
    FinitePmf,
    GadgetOracle,
    GadgetParams,
    Restriction,
    enumerate_lifted,
    exact_lifted_agreement,
    exact_lifted_tree_error,
    exact_restriction_probability,
    is_block_complete,
    lift_columns,
    lift_parity,
    lift_sample,
    solution_unions,
    span_lifted_tree_error,
    unlift_parity,
)
from ncplift.instance import LabeledSet, _independent_rows
from ncplift.learners import _parity_dags, parity_to_tree
from ncplift.span import exact_disagreement, make_span_oracle
from helpers import SampledPmf, blockwise_parity, complement_tree, cpu_limit, exact_distance

P2 = GadgetParams(ell=2, base_n=2)


def pmf(bits_labels_weights, length):
    """SampledPmf from (point01, label, weight) triples."""
    total = sum(w for _, _, w in bits_labels_weights)
    pts, labs, probs = [], [], []
    for b, lab, w in bits_labels_weights:
        pts.append(BitVector.from01(b))
        labs.append(lab)
        probs.append(Fraction(w, total))
    return SampledPmf(tuple(pts), tuple(probs), tuple(labs), length)


def random_pmf(rng, n, max_support=4):
    size = rng.randint(1, min(max_support, 1 << n))
    masks = rng.sample(range(1 << n), size)
    weights = [rng.randint(1, 9) for _ in masks]
    total = sum(weights)
    return FinitePmf(
        tuple(BitVector(n, mk) for mk in masks),
        tuple(Fraction(w, total) for w in weights),
        tuple(rng.getrandbits(1) for _ in masks),
        n,
    )


def index_set(*indices):
    return ParityIndexSet.from_iterable(indices)


def chi(s, y):
    val = 0
    for i in s.indices:
        val ^= y.mask >> i - 1 & 1
    return val


# ---------------------------------------------------------------- params


def test_params_shape():
    p = GadgetParams(ell=3, base_n=4)
    assert p.lifted_n == 12
    assert p.block_of(1) == 1
    assert p.block_of(3) == 1
    assert p.block_of(4) == 2
    assert p.block_of(12) == 4
    with pytest.raises(ValueError):
        p.block_of(13)
    with pytest.raises(ValueError):
        GadgetParams(ell=0, base_n=2)


# ---------------------------------------------------------------- pmf


def test_pmf_validation():
    with pytest.raises(ValueError):
        pmf([("10", 1, 1), ("10", 0, 1)], 2)  # duplicate point
    with pytest.raises(ValueError):
        FinitePmf(
            (BitVector.from01("1"),), (Fraction(1, 2),), (0,), 1
        )  # does not sum to 1


def test_pmf_sampling_matches_weights():
    base = pmf([("0", 0, 1), ("1", 1, 3)], 1)
    rng = random.Random(2)
    hits = sum(base.sample(rng)[0].mask for _ in range(20000))
    assert abs(hits / 20000 - 0.75) < 0.02
    assert list(base.enumerate_weighted()) == [
        (BitVector.from01("0"), Fraction(1, 4), 0),
        (BitVector.from01("1"), Fraction(3, 4), 1),
    ]


# ---------------------------------------------------------------- folding


def test_blockwise_parity_example():
    y = BitVector.from01("1101")
    assert blockwise_parity(y, P2).to01() == "01"


def test_blockwise_parity_identity_when_blocks_are_single():
    p1 = GadgetParams(ell=1, base_n=4)
    y = BitVector.from01("0110")
    assert blockwise_parity(y, p1) == y


def test_blockwise_parity_rejects_wrong_length():
    with pytest.raises(ValueError):
        blockwise_parity(BitVector.from01("110"), P2)


@given(st.integers(1, 4), st.integers(1, 5), st.data())
@settings(max_examples=150)
def test_lift_sample_folds_back(ell, n, data):
    params = GadgetParams(ell=ell, base_n=n)
    x = BitVector(n, data.draw(st.integers(0, (1 << n) - 1)))
    lab = data.draw(st.integers(0, 1))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    y, out_lab = lift_sample((x, lab), params, rng)
    assert y.length == params.lifted_n
    assert out_lab == lab
    assert blockwise_parity(y, params) == x


def test_lift_sample_fiber_uniform_chi_squared():
    # Empirical fiber frequencies against the exact lifted law, ell=2,
    # n=2, rejected only below the 10**-3 quantile.
    base = pmf([("00", 0, 1), ("11", 1, 2), ("10", 1, 1)], 2)
    exact = {
        (y.mask, lab): w for y, w, lab in enumerate_lifted(base, P2)
    }
    assert sum(exact.values()) == 1
    rng = random.Random(1009)
    draws = 10**5
    counts: dict[tuple[int, int], int] = {}
    for _ in range(draws):
        y, lab = lift_sample(base.sample(rng), P2, rng)
        counts[(y.mask, lab)] = counts.get((y.mask, lab), 0) + 1
    assert set(counts) <= set(exact)
    stat = 0.0
    for key, w in exact.items():
        expected = float(w) * draws
        stat += (counts.get(key, 0) - expected) ** 2 / expected
    threshold = scipy.stats.chi2.ppf(1 - 1e-3, df=len(exact) - 1)
    assert stat < threshold


class RowsOracle:
    """Base source replaying fixed (mask, label) rows in order."""

    def __init__(self, rows, length):
        self.rows = rows
        self.length = length
        self.pos = 0

    def sample(self, rng):
        mask, label = self.rows[self.pos % len(self.rows)]
        self.pos += 1
        return BitVector(self.length, mask), label


def column_rows(cols, count):
    """Row r of packed columns, as a mask."""
    return [sum((c >> r & 1) << j for j, c in enumerate(cols)) for r in range(count)]


@given(st.integers(1, 4), st.integers(0, 6), st.data())
@settings(max_examples=150, deadline=None)
def test_sample_columns_fold_to_their_base_rows(ell, n, data):
    params = GadgetParams(ell=ell, base_n=n)
    count = data.draw(st.integers(1, 70))
    rows = data.draw(
        st.lists(st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, 1)),
                 min_size=count, max_size=count)
    )
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    cols, label_col = GadgetOracle(RowsOracle(rows, n), params).sample_columns(rng, count)
    assert len(cols) == params.lifted_n
    assert all(0 <= c < 1 << count for c in cols)
    for r, y in enumerate(column_rows(cols, count)):
        assert blockwise_parity(BitVector(params.lifted_n, y), params).mask == rows[r][0]
        assert label_col >> r & 1 == rows[r][1]
    assert label_col < 1 << count


@pytest.mark.parametrize("ell", [2, 3])
def test_sample_columns_fiber_uniform_chi_squared(ell):
    # The packed sampler's rows against the exact lifted law, on the
    # base of ``test_lift_sample_fiber_uniform_chi_squared``, rejected
    # only below the 10**-3 quantile.
    base = pmf([("00", 0, 1), ("11", 1, 2), ("10", 1, 1)], 2)
    params = GadgetParams(ell=ell, base_n=2)
    exact = {
        (y.mask, lab): w for y, w, lab in enumerate_lifted(base, params)
    }
    assert sum(exact.values()) == 1
    oracle = GadgetOracle(base, params)
    rng = random.Random(1013)
    draws = 10**5
    counts: dict[tuple[int, int], int] = {}
    for _ in range(draws // 1000):
        cols, label_col = oracle.sample_columns(rng, 1000)
        for r, y in enumerate(column_rows(cols, 1000)):
            key = (y, label_col >> r & 1)
            counts[key] = counts.get(key, 0) + 1
    assert set(counts) <= set(exact)
    stat = 0.0
    for key, w in exact.items():
        expected = float(w) * draws
        stat += (counts.get(key, 0) - expected) ** 2 / expected
    threshold = scipy.stats.chi2.ppf(1 - 1e-3, df=len(exact) - 1)
    assert stat < threshold


def test_lift_columns_rejects_a_column_count_off_the_base():
    with pytest.raises(ValueError):
        lift_columns([0, 1, 1], 1, P2, random.Random(0))


def test_gadget_oracle_wraps_base():
    base = pmf([("01", 1, 1), ("10", 0, 1)], 2)
    oracle = GadgetOracle(base, P2)
    assert oracle.length == 4
    support = {p.mask: lab for p, _, lab in base.enumerate_weighted()}
    cols, label_col = oracle.sample_columns(random.Random(8), 200)
    for r, y in enumerate(column_rows(cols, 200)):
        folded = blockwise_parity(BitVector(4, y), P2)
        assert support[folded.mask] == label_col >> r & 1


# ---------------------------------------------------------------- index sets


def test_lift_parity_examples():
    p3 = GadgetParams(ell=3, base_n=3)
    assert lift_parity(index_set(2), p3) == index_set(4, 5, 6)
    wide = GadgetParams(ell=2, base_n=3)
    assert lift_parity(index_set(1, 3), wide) == index_set(1, 2, 5, 6)
    assert lift_parity(index_set(), P2) == index_set()
    with pytest.raises(ValueError):
        lift_parity(index_set(3), P2)


def test_unlift_parity_examples():
    assert unlift_parity(index_set(1), P2) == index_set(1)
    assert unlift_parity(index_set(1, 2), P2) == index_set(1)
    assert unlift_parity(index_set(2, 3), P2) == index_set(1, 2)
    assert unlift_parity(index_set(), P2) == index_set()


def test_is_block_complete_examples():
    assert is_block_complete(index_set(), P2)
    assert is_block_complete(index_set(1, 2), P2)
    assert not is_block_complete(index_set(1), P2)
    assert not is_block_complete(index_set(1, 2, 3), P2)


def dict_block_fold(s, params):
    """Reference for ``gadget._block_fold``: count the indices of s per
    block in a dict, then keep the blocks whose count is ell."""
    if s.indices and s.indices[-1] > params.lifted_n:
        raise ValueError("parity index exceeds the lifted arity")
    counts = {}
    for c in s:
        b = (c - 1) // params.ell
        counts[b] = counts.get(b, 0) + 1
    fmask = 0
    for b, v in counts.items():
        if v != params.ell:
            return None
        fmask |= 1 << b
    return fmask


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_block_fold_matches_the_dict_count(ell):
    # Every lifted mask up to 12 bits, and out-of-range ones.
    params = GadgetParams(ell=ell, base_n=12 // ell)
    for mask in range(1 << params.lifted_n):
        s = ParityIndexSet.from_mask(mask)
        want = dict_block_fold(s, params)
        assert gadget._block_fold(mask, params) == want
        assert is_block_complete(s, params) == (want is not None)
    for mask in (1 << params.lifted_n, (1 << params.lifted_n + 3) - 1):
        s = ParityIndexSet.from_mask(mask)
        with pytest.raises(ValueError):
            dict_block_fold(s, params)
        with pytest.raises(ValueError):
            gadget._block_fold(mask, params)
        with pytest.raises(ValueError):
            is_block_complete(s, params)


@pytest.mark.parametrize("ell", [1, 2, 3, 4])
def test_block_unions_are_the_block_complete_subsets(ell):
    # Every lifted mask up to 8 bits, as the one path set of its parity
    # tree, over a span with no rows, where every union of whole blocks
    # solves the empty system: the solution unions are exactly the
    # subsets that the fold finds block complete.
    params = GadgetParams(ell=ell, base_n=8 // ell)
    span = make_span_oracle(LabeledSet((), (), params.base_n))
    for mask in range(1 << params.lifted_n):
        subsets = [sub for sub in range(1 << params.lifted_n) if sub & mask == sub]
        assert solution_unions(parity_to_tree(ParityIndexSet.from_mask(mask)), span, params) == {
            sub for sub in subsets if gadget._block_fold(sub, params) is not None
        }


@given(st.integers(1, 4), st.integers(1, 5), st.data())
@settings(max_examples=150)
def test_lift_unlift_round_trip(ell, n, data):
    params = GadgetParams(ell=ell, base_n=n)
    smask = data.draw(st.integers(0, (1 << n) - 1))
    s_star = ParityIndexSet.from_mask(smask)
    lifted = lift_parity(s_star, params)
    assert unlift_parity(lifted, params) == s_star
    assert is_block_complete(lifted, params)
    assert len(lifted) == params.ell * len(s_star)


@given(st.integers(1, 4), st.integers(1, 4), st.data())
@settings(max_examples=150)
def test_unlift_lift_closure(ell, n, data):
    params = GadgetParams(ell=ell, base_n=n)
    smask = data.draw(st.integers(0, (1 << params.lifted_n) - 1))
    s = ParityIndexSet.from_mask(smask)
    closure = lift_parity(unlift_parity(s, params), params)
    assert set(s.indices) <= set(closure.indices)
    assert (closure == s) == is_block_complete(s, params)


# ---------------------------------------------------------------- agreement


def base_agreement(base, s_star):
    return sum(
        (prob for p, prob, lab in base.enumerate_weighted() if chi(s_star, p) == lab),
        Fraction(0),
    )


def brute_agreement(base, s, params):
    return sum(
        (w for y, w, lab in enumerate_lifted(base, params) if chi(s, y) == lab),
        Fraction(0),
    )


def test_partial_block_parity_agreement_is_half():
    base = pmf([("00", 0, 1), ("11", 1, 5)], 2)
    for s in (index_set(1), index_set(1, 2, 3), index_set(2, 4)):
        assert exact_lifted_agreement(base, s, P2) == Fraction(1, 2)


def test_block_complete_agreement_equals_base_agreement():
    rng = random.Random(71)
    for _ in range(30):
        n = rng.randint(1, 3)
        ell = rng.choice([2, 3])
        params = GadgetParams(ell=ell, base_n=n)
        base = random_pmf(rng, n)
        smask = rng.getrandbits(n)
        s_star = ParityIndexSet.from_mask(smask)
        lifted = lift_parity(s_star, params)
        assert exact_lifted_agreement(base, lifted, params) == base_agreement(
            base, s_star
        )


def test_agreement_closed_form_matches_fiber_enumeration():
    rng = random.Random(73)
    for _ in range(15):
        base = random_pmf(rng, 2)
        for smask in range(1 << 4):
            s = ParityIndexSet.from_mask(smask)
            assert exact_lifted_agreement(base, s, P2) == brute_agreement(
                base, s, P2
            )


def test_lifting_a_consistent_parity_keeps_agreement_one():
    # Base labels equal to a parity lift to complete agreement with the
    # lifted parity.
    rng = random.Random(79)
    for _ in range(10):
        n = rng.randint(1, 3)
        smask = rng.getrandbits(n)
        s_star = ParityIndexSet.from_mask(smask)
        raw = random_pmf(rng, n)
        base = FinitePmf(
            raw.points,
            raw.probs,
            tuple(chi(s_star, p) for p in raw.points),
            n,
        )
        lifted = lift_parity(s_star, P2 if n == 2 else GadgetParams(2, n))
        params = GadgetParams(2, n)
        assert exact_lifted_agreement(base, lifted, params) == 1


@given(
    st.integers(0, 12),
    st.integers(0, 2),
    st.sampled_from([2, 3]),
    st.sampled_from(["planted", "lifted", "any"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_span_agreement_matches_both_oracles(m, extra, ell, mode, seed):
    # "planted" labels the basis by chi_{S*} and asks for lift(S*), the
    # agreement-1 branch; "lifted" asks for the lift of a random base
    # set under random labels (block-complete, mostly inconsistent);
    # "any" asks for a random lifted set (mostly a partial block).  The
    # set is looked up in the solution unions of a path set around it,
    # and the span oracle is the enumerating one the dichotomy is
    # checked against.
    rng = random.Random(seed)
    n = max(m, 1) + extra
    params = GadgetParams(ell, n)
    masks = _independent_rows(rng, n, m).row_masks
    s_star = ParityIndexSet.from_mask(rng.getrandbits(n))
    if mode == "planted":
        labels = tuple((s_star.mask & mk).bit_count() & 1 for mk in masks)
    else:
        labels = tuple(rng.getrandbits(1) for _ in masks)
    span = make_span_oracle(
        LabeledSet(tuple(BitVector(n, mk) for mk in masks), labels, n)
    )
    if mode == "any":
        s = ParityIndexSet.from_mask(rng.getrandbits(params.lifted_n))
    else:
        s = lift_parity(s_star, params)
    pathmask = s.mask | rng.getrandbits(params.lifted_n)
    got = s.mask in solution_unions(parity_to_tree(ParityIndexSet.from_mask(pathmask)), span, params)
    agreement = exact_lifted_agreement(span, s, params)
    assert agreement in (Fraction(1, 2), Fraction(1))
    assert got == (agreement == 1)
    if is_block_complete(s, params):
        assert agreement == 1 - exact_disagreement(span, unlift_parity(s, params))
    else:
        assert agreement == Fraction(1, 2)
    if mode == "planted":
        assert got


def test_span_agreement_rejects_foreign_index():
    span = make_span_oracle(LabeledSet((BitVector.from01("10"),), (1,), 2))
    with pytest.raises(ValueError):
        solution_unions(Node(5, Leaf(0), Leaf(1)), span, P2)
    with pytest.raises(ValueError):
        solution_unions(Node(1, parity_to_tree(index_set(2)), Node(5, Leaf(0), Leaf(1))), span, P2)


# ---------------------------------------------------------------- restrictions


def brute_restriction_probability(base, rho, params):
    fixed = dict(zip(rho.coords, rho.values))
    total = Fraction(0)
    for y, w, _ in enumerate_lifted(base, params):
        if all(y.mask >> c - 1 & 1 == v for c, v in fixed.items()):
            total += w
    return total


def test_empty_restriction_has_probability_one():
    base = pmf([("01", 1, 1), ("11", 0, 2)], 2)
    assert exact_restriction_probability(base, Restriction.of({}), P2) == 1


def test_full_block_contradiction_has_probability_zero():
    # Point mass on x = 0; pinning block 1 to odd parity is impossible.
    base = pmf([("0", 0, 1)], 1)
    params = GadgetParams(ell=2, base_n=1)
    rho = Restriction.of({1: 1, 2: 0})
    assert exact_restriction_probability(base, rho, params) == 0


def test_restriction_probability_all_patterns_small():
    # Every restriction shape on four lifted coordinates: 3**4 cases per
    # base source, closed form against the fiber enumeration.
    rng = random.Random(83)
    for _ in range(6):
        base = random_pmf(rng, 2)
        count = 0
        for states in itertools.product((None, 0, 1), repeat=4):
            assignment = {
                c: v for c, v in zip(range(1, 5), states) if v is not None
            }
            rho = Restriction.of(assignment)
            got = exact_restriction_probability(base, rho, P2)
            assert got == brute_restriction_probability(base, rho, P2)
            count += 1
        assert count == 81


def test_restriction_of_rejects_bad_coords():
    with pytest.raises(ValueError):
        Restriction((2, 1), BitVector.from01("10"))
    with pytest.raises(ValueError):
        Restriction((1, 1), BitVector.from01("10"))


# ---------------------------------------------------------------- tree error


def test_tree_error_closed_form_matches_enumeration():
    rng = random.Random(89)
    trees = [
        Leaf(0),
        Leaf(1),
        Node(1, Leaf(0), Leaf(1)),
        Node(3, Leaf(1), Leaf(0)),
        Node(2, Node(1, Leaf(0), Leaf(1)), Leaf(1)),
        Node(1, Node(3, Leaf(0), Leaf(1)), Node(4, Leaf(1), Leaf(0))),
    ]
    for _ in range(8):
        base = random_pmf(rng, 2)
        lifted = list(enumerate_lifted(base, P2))
        for t in trees:
            assert exact_lifted_tree_error(t, base, P2) == exact_distance(t, lifted)


def random_span(rng, n, m, labels=None):
    masks = _independent_rows(rng, n, m).row_masks
    if labels is None:
        labels = tuple(rng.getrandbits(1) for _ in masks)
    return make_span_oracle(LabeledSet(tuple(BitVector(n, mk) for mk in masks), labels, n))


@pytest.mark.parametrize("n, m, ell", [(6, 0, 2), (6, 1, 1), (9, 5, 3), (40, 30, 2)])
def test_peek_labels_is_the_sampled_label_column(n, m, ell):
    # The peek reads the labels that sample_columns then draws, and leaves
    # the generator where it was, so the sample after it is unchanged.
    rng = random.Random(n * m + ell)
    oracle = GadgetOracle(random_span(rng, n, m), GadgetParams(ell, n))
    for count in (1, 2, 63, 200):
        state = rng.getstate()
        peeked = oracle.peek_labels(rng, count)
        assert rng.getstate() == state
        assert peeked == oracle.sample_columns(rng, count)[1]


def test_peek_labels_of_a_base_without_label_column():
    # Any other base's labels are read from whole draws, on the same copy.
    oracle = GadgetOracle(pmf([("01", 1, 1), ("10", 0, 2), ("11", 1, 3)], 2), P2)
    rng = random.Random(4)
    state = rng.getstate()
    peeked = oracle.peek_labels(rng, 90)
    assert rng.getstate() == state
    assert peeked == oracle.sample_columns(rng, 90)[1]


def random_block_tree(rng, params, depth):
    """Random tree of depth <= ``depth`` that queries the coordinates of
    a few blocks, so paths cover some blocks fully and others partly,
    plus now and then any coordinate, repeats on a path included."""
    blocks = rng.sample(range(params.base_n), min(params.base_n, rng.randint(1, 3)))
    coords = [b * params.ell + j + 1 for b in blocks for j in range(params.ell)]

    def build(d):
        if d == 0 or rng.random() < 0.15:
            return Leaf(rng.getrandbits(1))
        if rng.random() < 0.1:
            coord = rng.randint(1, params.lifted_n)
        else:
            coord = rng.choice(coords)
        return Node(coord, build(d - 1), build(d - 1))
    return build(depth)


def flip_leaves(rng, tree):
    if isinstance(tree, Leaf):
        return Leaf(1 - tree.label) if rng.random() < 0.15 else tree
    return Node(tree.coord, flip_leaves(rng, tree.low), flip_leaves(rng, tree.high))


@given(
    st.integers(0, 12),
    st.integers(0, 2),
    st.sampled_from([2, 3]),
    st.sampled_from(["random", "parity", "planted"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_span_tree_error_matches_the_enumeration(m, extra, ell, mode, seed):
    # "random" draws a tree over a few blocks (full and partial paths);
    # "parity" the complete tree of a lifted parity, leaves flipped now
    # and then, under random labels; "planted" the same with the basis
    # labeled by that parity, so distance 0 and its neighbours occur.
    rng = random.Random(seed)
    n = max(m, 1) + extra
    params = GadgetParams(ell, n)
    s_star = ParityIndexSet.from_iterable(
        rng.sample(range(1, n + 1), min(n, rng.randint(0, 5 // ell)))
    )
    if mode == "planted":
        masks = _independent_rows(rng, n, m).row_masks
        labels = tuple((s_star.mask & mk).bit_count() & 1 for mk in masks)
        span = make_span_oracle(
            LabeledSet(tuple(BitVector(n, mk) for mk in masks), labels, n)
        )
    else:
        span = random_span(rng, n, m)
    clean = parity_to_tree(lift_parity(s_star, params))
    tree = random_block_tree(rng, params, 5) if mode == "random" else flip_leaves(rng, clean)
    got = span_lifted_tree_error(tree, span, params)
    assert got == exact_lifted_tree_error(tree, span, params)
    if mode == "planted" and tree == clean:
        assert got == 0


def per_path_span_tree_error(tree, span, params):
    """Reference for ``span_lifted_tree_error``: one elimination per
    reachable path, of the path's full-block rows and its label row,
    each term its own Fraction."""
    if span.length != params.base_n:
        raise ValueError("base arity does not match the gadget parameters")
    m = span.dimension
    forms = BitMatrix(m, span.length, span.points).column_masks()
    label_form = sum(label << j for j, label in enumerate(span.labels))
    err = Fraction(0)
    for fixed, leaf_label in gadget._paths(tree):
        exponent, fmask, req = gadget._restriction_blocks(Restriction.of(fixed), params)
        rows = [label_form | (leaf_label ^ 1) << m]
        while fmask:
            low = fmask & -fmask
            b = low.bit_length() - 1
            rows.append(forms[b] | (req >> b & 1) << m)
            fmask ^= low
        elim = eliminate(rows)
        if elim.reduce(1 << m)[0] != 0:
            err += Fraction(1, 1 << (exponent + len(elim.basis)))
    return err


def repeating_tree(rng, params, depth, pool):
    """Random tree over a pool of lifted coordinates so small that
    paths fill blocks and query coordinates again, subtrees shared now
    and then."""
    if depth == 0 or rng.random() < 0.1:
        return Leaf(rng.getrandbits(1))
    low = repeating_tree(rng, params, depth - 1, pool)
    high = low if rng.random() < 0.2 else repeating_tree(rng, params, depth - 1, pool)
    return Node(rng.choice(pool), low, high)


@given(
    st.integers(0, 14),
    st.integers(0, 3),
    st.sampled_from([1, 2, 3]),
    st.integers(1, 8),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_span_tree_error_matches_the_per_path_form(m, extra, ell, depth, seed):
    # Random trees that repeat queries, and lifted parity trees with
    # flipped leaves, against the per-path eliminations; at small
    # dimension also against the enumeration over every span point.
    rng = random.Random(seed)
    n = max(m, 1) + extra
    params = GadgetParams(ell, n)
    span = random_span(rng, n, m)
    blocks = rng.sample(range(n), min(n, rng.randint(1, 4)))
    pool = [b * ell + j + 1 for b in blocks for j in range(ell)]
    s_star = ParityIndexSet.from_iterable(rng.sample(range(1, n + 1), min(n, depth // ell)))
    trees = [
        repeating_tree(rng, params, depth, pool),
        flip_leaves(rng, parity_to_tree(lift_parity(s_star, params))),
    ]
    for tree in trees:
        got = span_lifted_tree_error(tree, span, params)
        assert got == per_path_span_tree_error(tree, span, params)
        if m <= 6:
            assert got == exact_lifted_tree_error(tree, span, params)


def walk_span_tree_error(tree, span, params):
    """Reference for ``span_lifted_tree_error``: one depth-first walk
    over every reachable path, each path's term 2**-(scale exponent +
    rank) of its affine system in the subset vector u of the basis.

    Down each path it carries the fixed coordinates and their values,
    the scale exponent (one per fixed coordinate, less one per full
    block), and an echelon basis of the full-block equations,
    right-hand side as bit m and pivots lowest bits.  A row that
    reduces to the bare right-hand side is inconsistent, and that
    subtree contributes 0.  The label form rides along reduced against
    the basis; terms are integers over 2**(depth + 1)."""
    if span.length != params.base_n:
        raise ValueError("base arity does not match the gadget parameters")
    m = span.dimension
    rhs = 1 << m
    forms = BitMatrix(m, span.length, span.points).column_masks()
    label_form = sum(label << j for j, label in enumerate(span.labels))
    ell = params.ell
    ones = (1 << ell) - 1
    top = tree.depth + 1
    total = 0
    stack = [(tree, 0, 0, 0, (), label_form)]
    while stack:
        node, fixed, values, exponent, basis, label_row = stack.pop()
        if isinstance(node, Leaf):
            row = label_row ^ (node.label ^ 1) << m
            if row != rhs:
                total += 1 << (top - exponent - len(basis) - (row != 0))
            continue
        bit = 1 << (node.coord - 1)
        if fixed & bit:
            child = node.high if values & bit else node.low
            stack.append((child, fixed, values, exponent, basis, label_row))
            continue
        fixed |= bit
        b = (node.coord - 1) // ell
        block = ones << (b * ell)
        if fixed & block != block:
            stack.append((node.low, fixed, values, exponent + 1, basis, label_row))
            stack.append((node.high, fixed, values | bit, exponent + 1, basis, label_row))
            continue
        row = forms[b] | ((values & block).bit_count() & 1) << m
        for r in basis:
            if row & r & -r:
                row ^= r
        for child, value, eq in ((node.low, 0, row), (node.high, bit, row ^ rhs)):
            if eq == rhs:
                continue
            if eq == 0:
                stack.append((child, fixed, values | value, exponent, basis, label_row))
            else:
                reduced = label_row ^ eq if label_row & eq & -eq else label_row
                stack.append((child, fixed, values | value, exponent, basis + (eq,), reduced))
    return Fraction(total, 1 << top)


def shared_dag(rng, pool, depth, parity=()):
    """Random DAG of exactly the given depth, built a level at a time
    from (Leaf(0), Leaf(1)).  Each level holds two to four nodes whose
    children come from the level below, so nodes have several parents.
    Each coordinate of ``parity`` gets a level of its own, at random,
    that turns the first two nodes (even, odd) into (Node(c, even, odd),
    Node(c, odd, even)); every other level queries a coordinate of the
    small pool and keeps even on one side and odd on the other, the
    other side a copy of it or another node, so paths fill blocks and
    repeat queries while the root still correlates with the parity over
    ``parity``."""
    order = list(parity) + [None] * (depth - len(parity))
    rng.shuffle(order)
    level = [Leaf(0), Leaf(1)]
    for c in order:
        fresh = [
            Node(rng.choice(pool), rng.choice(level), rng.choice(level))
            for _ in range(rng.randint(0, 2))
        ]
        even, odd = level[0], level[1]
        if c is None:
            c = rng.choice(pool)
            others = level[2:]
            level = [Node(c, even, rng.choice([even] + others)), Node(c, rng.choice([odd] + others), odd)]
        else:
            level = [Node(c, even, odd), Node(c, odd, even)]
        level += fresh
    return level[0]


@given(
    st.integers(1, 10),
    st.integers(0, 2),
    st.sampled_from([1, 2, 3]),
    st.integers(8, 16),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_span_tree_error_matches_the_walk_on_shared_dags(m, extra, ell, depth, planted, seed):
    # DAGs of depth 8-16 that share nodes and repeat queries, around
    # the lifted parity of some blocks of the pool; the labels are
    # planted on those blocks or random.  Against the walk over every
    # reachable path.
    rng = random.Random(seed)
    n = m + extra
    params = GadgetParams(ell, n)
    blocks = rng.sample(range(n), min(n, rng.randint(1, 4)))
    pool = [b * ell + j + 1 for b in blocks for j in range(ell)]
    chosen = [b + 1 for b in blocks if rng.random() < 0.7][: 8 // ell]
    s_star = ParityIndexSet.from_iterable(chosen)
    if planted:
        masks = _independent_rows(rng, n, m).row_masks
        labels = tuple((s_star.mask & mk).bit_count() & 1 for mk in masks)
        span = make_span_oracle(LabeledSet(tuple(BitVector(n, mk) for mk in masks), labels, n))
    else:
        span = random_span(rng, n, m)
    tree = shared_dag(rng, pool, depth, lift_parity(s_star, params).indices)
    assert tree.depth == depth
    assert span_lifted_tree_error(tree, span, params) == walk_span_tree_error(tree, span, params)


def test_span_tree_error_of_a_depth_24_parity_dag():
    # Eight blocks of width 3 lift to a parity DAG of depth 24, 2**24
    # paths on 50 objects: distance 0 for the planted set, 1 for its
    # complement and 1/2 for a set of blocks that solves nothing.
    rng = random.Random(24)
    n, m = 12, 8
    params = GadgetParams(3, n)
    s_star = index_set(1, 2, 4, 5, 7, 8, 10, 11)
    wrong = index_set(1, 2, 4, 5, 7, 8, 10, 12)
    masks = _independent_rows(rng, n, m).row_masks
    labels = tuple((s_star.mask & mk).bit_count() & 1 for mk in masks)
    span = make_span_oracle(LabeledSet(tuple(BitVector(n, mk) for mk in masks), labels, n))
    assert lift_parity(s_star, params).mask in solution_unions(
        parity_to_tree(lift_parity(s_star, params)), span, params
    )
    assert lift_parity(wrong, params).mask not in solution_unions(
        parity_to_tree(lift_parity(wrong, params)), span, params
    )
    planted, complement = _parity_dags(lift_parity(s_star, params).indices)
    assert planted.depth == complement.depth == 24
    assert span_lifted_tree_error(planted, span, params) == 0
    assert span_lifted_tree_error(complement, span, params) == 1
    other = parity_to_tree(lift_parity(wrong, params))
    assert span_lifted_tree_error(other, span, params) == Fraction(1, 2)


def submasks(mask):
    """Every mask whose bits lie within the given one."""
    sub = mask
    while True:
        yield sub
        if not sub:
            return
        sub = (sub - 1) & mask


def test_solution_unions_are_the_unions_at_agreement_one():
    # The path sets of random trees over a few blocks, each subset of
    # each scored by the enumerating agreement.
    rng = random.Random(103)
    for _ in range(40):
        n = rng.randint(1, 6)
        ell = rng.choice([1, 2, 3])
        params = GadgetParams(ell, n)
        span = random_span(rng, n, rng.randint(0, n))
        tree = random_block_tree(rng, params, rng.randint(0, 4))
        pathmasks = path_masks(tree)
        want = {
            union
            for pathmask in pathmasks
            for union in submasks(pathmask)
            if exact_lifted_agreement(span, ParityIndexSet.from_mask(union), params) == 1
        }
        assert solution_unions(tree, span, params) == want


def test_path_sets_past_unions_max_are_refused_in_bounded_memory():
    # Two nodes per level, on coordinates 2i-1 and 2i: 2**20 path sets
    # on 42 nodes.  Building them stops at the first node past
    # UNIONS_MAX = 2**16, 17 levels up, before anything is solved.
    params = GadgetParams(2, 20)
    span = random_span(random.Random(5), 20, 10)
    level = [Leaf(0), Leaf(1)]
    for i in range(20, 0, -1):
        level = [Node(2 * i - 1, *level), Node(2 * i, *level[::-1])]
    tracemalloc.start()
    try:
        for refused in (solution_unions, span_lifted_tree_error):
            with cpu_limit(5), pytest.raises(ValueError) as refusal:
                refused(level[0], span, params)
            assert str(refusal.value) == "the tree has more than 65536 path sets, past UNIONS_MAX"
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**26


def test_solution_unions_of_twenty_two_whole_blocks_solve_the_system():
    # A path set of 22 whole blocks of width 2 over 30 coordinates, plus
    # a half-covered block: one elimination of 22 columns of 12 rows,
    # no scan of the 2**22 unions.  Every union unlifts to a solution of
    # H s = t on those blocks, and there are 2**(22 - rank) of them.
    rng = random.Random(22)
    n, m = 30, 12
    params = GadgetParams(2, n)
    span = random_span(rng, n, m)
    h = BitMatrix(m, n, span.points)
    t = BitVector(m, sum(label << i for i, label in enumerate(span.labels)))
    whole = sorted(rng.sample(range(1, n + 1), 23))
    half = whole.pop()
    pathmask = lift_parity(ParityIndexSet.from_iterable(whole), params).mask
    pathmask |= 1 << (2 * half - 1)
    columns = [sum((row >> (b - 1) & 1) << i for i, row in enumerate(span.points)) for b in whole]
    started = time.process_time()
    unions = solution_unions(parity_to_tree(ParityIndexSet.from_mask(pathmask)), span, params)
    assert time.process_time() - started < 0.5
    assert len(unions) == 1 << (len(whole) - rank(BitMatrix(len(whole), m, columns)))
    for union in unions:
        s = unlift_parity(ParityIndexSet.from_mask(union), params)
        assert lift_parity(s, params).mask == union
        assert set(s.indices) <= set(whole)
        assert mat_vec(h, BitVector.from_support(s.indices, n)) == t


def test_tree_errors_match_fiber_enumeration_with_repeated_queries():
    # Trees that query a coordinate again below its first query: the
    # inner branch that contradicts the first answer is unreachable.
    rng = random.Random(97)
    trees = [
        Node(1, Node(1, Leaf(1), Leaf(0)), Leaf(0)),
        Node(2, Leaf(1), Node(1, Node(2, Leaf(0), Leaf(1)), Leaf(0))),
        Node(1, Node(2, Node(1, Leaf(0), Leaf(1)), Node(2, Leaf(1), Leaf(0))), Leaf(1)),
    ]
    for _ in range(10):
        n = rng.randint(2, 4)
        span = random_span(rng, n, rng.randint(0, n))
        params = GadgetParams(2, n)
        lifted = list(enumerate_lifted(span, params))
        for t in trees + [random_block_tree(rng, params, 5) for _ in range(10)]:
            want = exact_distance(t, lifted)
            assert exact_lifted_tree_error(t, span, params) == want
            assert span_lifted_tree_error(t, span, params) == want


def test_span_tree_error_of_planted_lift_and_constants():
    rng = random.Random(101)
    params = GadgetParams(2, 6)
    s_star = index_set(2, 5)
    masks = _independent_rows(rng, 6, 4).row_masks
    labels = tuple((s_star.mask & mk).bit_count() & 1 for mk in masks)
    span = make_span_oracle(LabeledSet(tuple(BitVector(6, mk) for mk in masks), labels, 6))
    tree = parity_to_tree(lift_parity(s_star, params))
    assert span_lifted_tree_error(tree, span, params) == 0
    assert span_lifted_tree_error(complement_tree(tree), span, params) == 1
    # A proper sub-parity covers a block partly: distance exactly 1/2.
    assert span_lifted_tree_error(parity_to_tree(index_set(3, 4, 9)), span, params) == Fraction(1, 2)
    # A constant misses the labels that differ from it: half of them,
    # since the labels are a nonzero linear form of the subset vector.
    assert span_lifted_tree_error(Leaf(0), span, params) == Fraction(1, 2)
    zero = make_span_oracle(LabeledSet((BitVector(6, masks[0]),), (0,), 6))
    assert span_lifted_tree_error(Leaf(0), zero, params) == 0
    assert span_lifted_tree_error(Leaf(1), zero, params) == 1


def test_span_tree_error_rejects_mismatched_params():
    span = make_span_oracle(LabeledSet((BitVector.from01("10"),), (1,), 2))
    with pytest.raises(ValueError):
        span_lifted_tree_error(Leaf(0), span, GadgetParams(2, 3))
    with pytest.raises(ValueError):
        span_lifted_tree_error(Node(5, Leaf(0), Leaf(1)), span, P2)
    # Below a query, and under a shared node.
    deep = Node(5, Leaf(0), Leaf(1))
    with pytest.raises(ValueError):
        span_lifted_tree_error(Node(1, Node(2, deep, deep), Leaf(0)), span, P2)


def test_enumerate_lifted_respects_cap():
    base = pmf([("000000000", 0, 1)], 9)
    with pytest.raises(ValueError):
        list(enumerate_lifted(base, GadgetParams(ell=2, base_n=9)))
