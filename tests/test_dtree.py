"""Decision trees: evaluation, pruning, spectra, serialization."""

import math
import random
import time
from contextlib import nullcontext
from fractions import Fraction
from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncplift.dtree import (
    FormatError,
    Leaf,
    Node,
    ParityIndexSet,
    estimate_distance,
    eval_tree,
    exact_uniform_fourier,
    format_tree,
    parse_tree,
    path_masks,
    path_support_sets,
    prune,
    sample_size,
    truth_table,
)
from ncplift.f2 import BitMatrix, BitVector, rank
from ncplift.instance import LabeledSet
from ncplift.learners import _parity_dags, parity_to_tree
from ncplift.reduction import DecideReport, SearchReport
from ncplift.span import make_span_oracle
from golden import _generic_tree
from helpers import complement_tree, cpu_limit, exact_distance, reduce_tree


def index_set(*indices):
    return ParityIndexSet.from_iterable(indices)


def random_reduced_tree(rng, n, max_depth):
    """Random tree whose paths never repeat a coordinate."""
    def build(avail, depth):
        if depth == 0 or not avail or rng.random() < 0.3:
            return Leaf(rng.getrandbits(1))
        c = rng.choice(avail)
        rest = [a for a in avail if a != c]
        return Node(c, build(rest, depth - 1), build(rest, depth - 1))
    return build(list(range(1, n + 1)), max_depth)


def random_sloppy_tree(rng, n, max_depth):
    """Random tree that may re-query coordinates along a path."""
    def build(depth):
        if depth == 0 or rng.random() < 0.3:
            return Leaf(rng.getrandbits(1))
        return Node(rng.randint(1, n), build(depth - 1), build(depth - 1))
    return build(max_depth)


def all_reduced_trees(avail, depth):
    """Every tree of the given depth bound over the given coordinates,
    no coordinate repeated along a path."""
    yield Leaf(0)
    yield Leaf(1)
    if depth == 0:
        return
    for c in avail:
        rest = tuple(a for a in avail if a != c)
        for low in all_reduced_trees(rest, depth - 1):
            for high in all_reduced_trees(rest, depth - 1):
                yield Node(c, low, high)


def fourier_by_definition(t, n):
    """Direct correlation sums, the independent spectral oracle."""
    out = {}
    total = 1 << n
    for smask in range(total):
        acc = 0
        for ym in range(total):
            tv = 1 - 2 * eval_tree(t, BitVector(n, ym))
            cv = 1 - 2 * ((smask & ym).bit_count() & 1)
            acc += tv * cv
        if acc:
            out[ParityIndexSet.from_mask(smask)] = Fraction(acc, total)
    return out


# ---------------------------------------------------------------- index sets


def test_index_set_basics():
    s = index_set(3, 1)
    assert s.indices == (1, 3)
    assert s.mask == 0b101
    assert len(s) == 2
    assert list(s) == [1, 3]
    assert 1 in s and 2 not in s
    assert ParityIndexSet.from_mask(0b101) == s
    assert index_set() == ParityIndexSet.from_mask(0)


@settings(max_examples=300)
@given(st.integers(0, 2**100))
def test_from_mask_keeps_the_mask_it_is_given(mask):
    # Indices read bit by bit, as the validating constructor sees them.
    indices = tuple(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)
    want = ParityIndexSet(indices)
    got = ParityIndexSet.from_mask(mask)
    assert got == want
    assert got.indices == indices
    assert got.mask == want.mask == mask
    assert hash(got) == hash(want)


def test_from_mask_rejects_a_negative_mask():
    with pytest.raises(ValueError):
        ParityIndexSet.from_mask(-1)


def test_index_set_validation():
    with pytest.raises(ValueError):
        ParityIndexSet((2, 1))
    with pytest.raises(ValueError):
        ParityIndexSet((1, 1))
    with pytest.raises(ValueError):
        ParityIndexSet((0,))


# ---------------------------------------------------------------- structure


def test_leaf_and_node_measures():
    assert Leaf(0).size == 1
    assert Leaf(1).depth == 0
    t = Node(1, Leaf(0), Node(2, Leaf(1), Leaf(0)))
    assert t.size == 3
    assert t.depth == 2
    with pytest.raises(ValueError):
        Leaf(2)
    with pytest.raises(ValueError):
        Node(0, Leaf(0), Leaf(1))


def test_measures_follow_recurrences():
    rng = random.Random(3)
    def size_of(t):
        return 1 if isinstance(t, Leaf) else size_of(t.low) + size_of(t.high)
    def depth_of(t):
        return 0 if isinstance(t, Leaf) else 1 + max(depth_of(t.low), depth_of(t.high))
    for _ in range(50):
        t = random_sloppy_tree(rng, 5, 4)
        assert t.size == size_of(t)
        assert t.depth == depth_of(t)


def same_tree_by_recursion(a, b):
    """Oracle: structural equality by plain recursion, no memo."""
    if isinstance(a, Leaf) or isinstance(b, Leaf):
        return isinstance(a, Leaf) and isinstance(b, Leaf) and a.label == b.label
    return (
        a.coord == b.coord
        and same_tree_by_recursion(a.low, b.low)
        and same_tree_by_recursion(a.high, b.high)
    )


def unshared_copy(t):
    """The same tree with every node built anew, shared subtrees apart."""
    if isinstance(t, Leaf):
        return Leaf(t.label)
    return Node(t.coord, unshared_copy(t.low), unshared_copy(t.high))


@pytest.mark.parametrize("colliding", [False, True], ids=["hashed", "colliding"])
def test_equality_and_hash_match_the_recursive_comparison(colliding):
    # colliding: every Node hashes alike, so no comparison is settled by
    # the hashes and the walk and its memo of met pairs decide alone.
    rng = random.Random(9)
    trees = [random_sloppy_tree(rng, 2, rng.randint(0, 3)) for _ in range(50)]
    trees += [random_dag(rng, 2, rng.randint(1, 5)) for _ in range(30)]
    trees += [unshared_copy(t) for t in trees[::3]]
    equal_pairs = 0
    with mock.patch.object(Node, "__hash__", lambda self: 0) if colliding else nullcontext():
        for a in trees:
            for b in trees:
                same = same_tree_by_recursion(a, b)
                assert (a == b) is same
                assert (a != b) is not same
                if same:
                    assert hash(a) == hash(b)
                    equal_pairs += a is not b
    assert equal_pairs > 100
    assert Node(1, Leaf(0), Leaf(1)) != Leaf(0)
    assert Node(1, Leaf(0), Leaf(1)) != (1, Leaf(0), Leaf(1))


def test_parity_dags_compare_and_hash_in_linear_time():
    # Built apart, the two depth-20 DAGs share no node; each has 2**20
    # paths on 42 nodes, so a walk of every path would take seconds.
    indices = tuple(range(1, 21))
    started = time.process_time()
    even, odd = _parity_dags(indices)
    even_again, odd_again = _parity_dags(indices)
    assert even == even_again and odd == odd_again and even != odd_again
    assert hash(even) == hash(even_again) and hash(odd) == hash(odd_again)
    assert time.process_time() - started < 0.05


def test_eval_tree():
    t = Node(2, Leaf(0), Node(1, Leaf(1), Leaf(0)))
    assert eval_tree(t, BitVector.from01("00")) == 0
    assert eval_tree(t, BitVector.from01("01")) == 1
    assert eval_tree(t, BitVector.from01("11")) == 0


def test_truth_table_matches_eval():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 6)
        t = random_sloppy_tree(rng, n, 4)
        tt = truth_table(t, n)
        for ym in range(1 << n):
            assert (tt >> ym) & 1 == eval_tree(t, BitVector(n, ym))


def test_reduce_tree_collapses_repeats():
    t = Node(1, Node(1, Leaf(1), Leaf(0)), Node(1, Leaf(0), Leaf(1)))
    r = reduce_tree(t)
    assert r == Node(1, Leaf(1), Leaf(1))


def test_reduce_preserves_function():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(1, 6)
        t = random_sloppy_tree(rng, n, 5)
        r = reduce_tree(t)
        assert truth_table(r, n) == truth_table(t, n)
        assert reduce_tree(r) == r
        assert r.size <= t.size and r.depth <= t.depth


def test_complement_flips_truth_table():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 5)
        t = random_sloppy_tree(rng, n, 4)
        c = complement_tree(t)
        assert truth_table(c, n) == truth_table(t, n) ^ ((1 << (1 << n)) - 1)
        assert c.size == t.size and c.depth == t.depth


# ---------------------------------------------------------------- pruning


def test_prune_is_identity_within_depth():
    t = Node(1, Leaf(0), Node(2, Leaf(1), Leaf(0)))
    assert prune(t, 2) is t
    assert prune(t, 5) is t
    assert prune(Leaf(1), 0) is not None


def test_prune_to_zero_depth():
    t = Node(1, Leaf(1), Leaf(1))
    assert prune(t, 0) == Leaf(0)


def test_prune_cuts_and_fills():
    t = Node(1, Leaf(1), Node(2, Leaf(1), Node(3, Leaf(0), Leaf(1))))
    cut = prune(t, 2)
    assert cut == Node(1, Leaf(1), Node(2, Leaf(1), Leaf(0)))


def test_prune_never_grows():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 6)
        t = random_sloppy_tree(rng, n, 6)
        for d in range(0, 7):
            cut = prune(t, d)
            assert cut.depth <= d or cut is t
            assert cut.depth <= max(t.depth, 0)
            assert cut.size <= t.size
            assert prune(cut, d) is cut
    with pytest.raises(ValueError):
        prune(Leaf(0), -1)


# ---------------------------------------------------------------- path supports


def test_path_support_sets_examples():
    assert path_support_sets(path_masks(Leaf(1))) == [index_set()]
    t1 = Node(3, Leaf(0), Leaf(1))
    assert path_support_sets(path_masks(t1)) == [index_set(), index_set(3)]
    t2 = Node(1, Leaf(0), Node(2, Leaf(1), Leaf(0)))
    assert path_support_sets(path_masks(t2)) == [
        index_set(),
        index_set(1),
        index_set(2),
        index_set(1, 2),
    ]
    # Path sets {1, 2} and {1, 3}: each shared subset once, in ascending
    # size, then lexicographic order across the two paths.
    t3 = Node(1, Node(2, Leaf(0), Leaf(1)), Node(3, Leaf(1), Leaf(0)))
    assert path_support_sets(path_masks(t3)) == [
        index_set(),
        index_set(1),
        index_set(2),
        index_set(3),
        index_set(1, 2),
        index_set(1, 3),
    ]
    assert path_support_sets(set()) == []


def test_path_support_sets_downward_closed_and_bounded():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(1, 8)
        t = random_reduced_tree(rng, n, 4)
        sets = path_support_sets(path_masks(t))
        assert index_set() in sets
        assert len(sets) <= 4 ** t.depth
        masks = {s.mask for s in sets}
        for m in masks:
            sub = m
            while sub:
                sub = (sub - 1) & m
                assert sub in masks


def leaf_paths(t):
    """The coordinates queried on each root-to-leaf path, one tuple per
    leaf, repeats included."""
    if isinstance(t, Leaf):
        return [()]
    return [(t.coord, *p) for child in (t.low, t.high) for p in leaf_paths(child)]


def every_subset_of_every_path(t):
    """Reference for ``path_support_sets``: every subset of every path,
    each path enumerated anew, 4**d subsets for a complete tree."""
    out = set()
    for path in leaf_paths(t):
        for r in range(len(path) + 1):
            out.update(ParityIndexSet.from_iterable(c) for c in combinations(path, r))
    return out


def one_set_tree(rng, coords):
    """Random tree whose every path queries all of coords, each path in
    its own random order, so every leaf repeats one path set."""
    if not coords:
        return Leaf(rng.getrandbits(1))
    c = rng.choice(coords)
    rest = [a for a in coords if a != c]
    return Node(c, one_set_tree(rng, rest), one_set_tree(rng, rest))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 10), st.integers(0, 6))
def test_path_support_sets_match_every_subset_of_every_path(seed, n, depth):
    rng = random.Random(seed)
    trees = [
        random_reduced_tree(rng, n, depth),
        parity_to_tree(ParityIndexSet.from_mask(rng.getrandbits(n))),
        one_set_tree(rng, rng.sample(range(1, n + 1), min(n, depth))),
    ]
    # Two subtrees over the same path sets, under a root of their own.
    trees.append(Node(n + 1, trees[0], complement_tree(trees[0])))
    for t in trees:
        assert path_masks(t) == {index_set(*p).mask for p in leaf_paths(t)}
        got = path_support_sets(path_masks(t))
        assert got == sorted(every_subset_of_every_path(t), key=lambda s: (len(s), s.indices))
        assert all(s.mask == ParityIndexSet(s.indices).mask for s in got)


def random_dag(rng, n, depth):
    """Random DAG of exactly the given depth over coordinates 1..n,
    built a level at a time from (Leaf(0), Leaf(1)): each level holds
    one to three nodes whose children come from the level below, so
    nodes have several parents and paths query coordinates again."""
    level = [Leaf(0), Leaf(1)]
    for _ in range(depth):
        level = [
            Node(rng.randint(1, n), rng.choice(level), rng.choice(level))
            for _ in range(rng.randint(1, 3))
        ]
    return level[0]


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 20), st.integers(8, 16))
def test_path_masks_of_shared_dags_match_every_leaf_path(seed, n, depth):
    rng = random.Random(seed)
    coords = rng.sample(range(1, 41), rng.randint(0, depth))
    trees = [random_dag(rng, n, depth), parity_to_tree(ParityIndexSet.from_iterable(coords))]
    trees.append(Node(n + 1, trees[0], trees[1]))
    for t in trees:
        assert path_masks(t) == {index_set(*p).mask for p in leaf_paths(t)}


def test_path_masks_of_a_depth_forty_parity_dag():
    # 2**40 leaves on 82 nodes: one path set, found without a leaf walk.
    full = index_set(*range(1, 41))
    t = parity_to_tree(full)
    assert t.depth == 40
    assert path_masks(t) == {full.mask}
    assert path_masks(Node(41, t, Leaf(0))) == {full.mask | 1 << 40, 1 << 40}


def recursive_prune(t, d):
    """Oracle for ``prune``: the recursion it replaces, one frame per
    level and no memo."""
    if t.depth <= d:
        return t
    if d == 0:
        return Leaf(0)
    return Node(t.coord, recursive_prune(t.low, d - 1), recursive_prune(t.high, d - 1))


def recursive_path_masks(t, most=math.inf):
    """Oracle for ``path_masks``: the recursion it replaces, memoized on
    node identity, then None when any node has more than ``most``."""
    memo = {}

    def walk(node):
        if isinstance(node, Leaf):
            return {0}
        found = memo.get(id(node))
        if found is None:
            bit = 1 << (node.coord - 1)
            found = {pathmask | bit for pathmask in walk(node.low) | walk(node.high)}
            memo[id(node)] = found
        return found
    found = walk(t)
    return found if all(len(sets) <= most for sets in memo.values()) else None


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 8), st.integers(0, 9))
def test_walks_match_the_recursions_they_replace(seed, n, depth):
    # Shared subtrees and repeated queries, cut at every depth up to
    # past the tree's own, and path sets bounded at a random count.
    rng = random.Random(seed)
    trees = [_generic_tree(rng, list(range(1, n + 1)), depth), random_dag(rng, n, depth)]
    trees.append(Node(n + 1, trees[0], trees[1]))
    for t in trees:
        for d in range(t.depth + 2):
            assert prune(t, d) == recursive_prune(t, d)
        assert path_masks(t) == recursive_path_masks(t)
        most = rng.randint(1, 12)
        assert path_masks(t, most) == recursive_path_masks(t, most)
        assert parse_tree(format_tree(t)) == t
        assert truth_table(complement_tree(t), n + 1) == truth_table(t, n + 1) ^ ((1 << (1 << n + 1)) - 1)


def test_prune_of_a_depth_forty_parity_dag_is_linear():
    # Each (node, depth left) is cut once: 2**20 paths above the cut,
    # but 2 nodes per level.
    t = parity_to_tree(index_set(*range(1, 41)))
    want = Leaf(0)
    for c in range(20, 0, -1):
        want = Node(c, want, want)
    with cpu_limit(1):
        cut = prune(t, 20)
        assert cut == want
        assert len(format_tree(cut).splitlines()) <= 2 * 20 + 1


def test_complement_of_a_depth_forty_parity_dag():
    even, odd = _parity_dags(tuple(range(1, 41)))
    with cpu_limit(1):
        assert complement_tree(even) == odd
        assert complement_tree(odd) == even


def test_walks_hold_no_frame_per_level():
    # A parity DAG of depth 3000, past the interpreter's recursion
    # limit, through every walk over it.
    full = index_set(*range(1, 3001))
    even, odd = _parity_dags(full.indices)
    with cpu_limit(5):
        assert path_masks(even) == {full.mask}
        assert prune(even, 1500).depth == 1500
        assert complement_tree(even) == odd
        assert parse_tree(format_tree(even)) == even


def test_repr_names_the_node_not_its_paths():
    # The dataclass repr wrote every path of a shared DAG, one frame per
    # level: at depth 3000 a RecursionError.  A report that holds the
    # tree prints through the same repr.
    even, _ = _parity_dags(tuple(range(1, 3001)))
    root = "Node(coord=1, depth=3000, size=2**3000)"
    with cpu_limit(1):
        assert repr(even) == root
        for report in (
            SearchReport(None, "no-candidate-verified", even.size, 9000, 0, even),
            DecideReport(False, "distance-gate", even.size, Fraction(1, 2), even.size, 0.0, 0.0, even),
        ):
            assert repr(report).endswith(f"hypothesis={root})")
    assert repr(Node(2, Leaf(0), Leaf(1))) == "Node(coord=2, depth=1, size=2)"


# ---------------------------------------------------------------- spectrum


def test_fourier_of_constants():
    assert exact_uniform_fourier(Leaf(1), 3) == {index_set(): Fraction(-1)}
    assert exact_uniform_fourier(Leaf(0), 3) == {index_set(): Fraction(1)}


def test_fourier_of_parity_tree():
    # Tree computing the parity of coordinates 1, 2: single coefficient.
    t = Node(1, Node(2, Leaf(0), Leaf(1)), Node(2, Leaf(1), Leaf(0)))
    assert exact_uniform_fourier(t, 2) == {index_set(1, 2): Fraction(1)}
    assert exact_uniform_fourier(complement_tree(t), 2) == {
        index_set(1, 2): Fraction(-1)
    }


def test_fourier_exhaustive_small_trees():
    # Every reduced-shape tree of depth <= 3 on three coordinates, both
    # against the definitional oracle and the support containment bound.
    count = 0
    for t in all_reduced_trees((1, 2, 3), 3):
        coeffs = exact_uniform_fourier(t, 3)
        assert coeffs == fourier_by_definition(t, 3)
        supports = set(path_support_sets(path_masks(t)))
        assert set(coeffs) <= supports
        assert len(coeffs) <= 4 ** t.depth
        count += 1
    assert count == 16430


def test_fourier_randomized_wider_trees():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(4, 8)
        t = reduce_tree(random_reduced_tree(rng, n, 4))
        coeffs = exact_uniform_fourier(t, n)
        assert set(coeffs) <= set(path_support_sets(path_masks(t)))
        # Parseval: the squared coefficients of a +/-1 function sum to 1.
        assert sum((c * c for c in coeffs.values()), Fraction(0)) == 1
        # The empty coefficient is the +/-1 mean of the truth table.
        ones = truth_table(t, n).bit_count()
        mean = Fraction((1 << n) - 2 * ones, 1 << n)
        assert coeffs.get(index_set(), Fraction(0)) == mean


def test_fourier_arity_cap():
    with pytest.raises(ValueError):
        exact_uniform_fourier(Leaf(0), 17)


# ---------------------------------------------------------------- distances


def test_exact_distance_weighted():
    t = Node(1, Leaf(0), Leaf(1))
    weighted = [
        (BitVector.from01("10"), Fraction(1, 4), 1),
        (BitVector.from01("00"), Fraction(1, 4), 1),
        (BitVector.from01("01"), Fraction(1, 2), 0),
    ]
    assert exact_distance(t, weighted) == Fraction(1, 4)


def test_sample_size_formula():
    # Hoeffding: n = ceil(ln(2 / (1 - conf)) / (2 tol^2)).
    assert sample_size(0.1, 0.95) == 185
    assert sample_size(0.05, 0.999) == 1521
    with pytest.raises(ValueError):
        sample_size(0.0, 0.5)
    with pytest.raises(ValueError):
        sample_size(0.1, 1.0)


def test_estimate_distance_within_tolerance():
    # 100 trials on spans of dimension 8 at confidence 0.999; with the
    # seeds frozen every estimate must land inside the tolerance.
    rng = random.Random(19)
    tol = 0.05
    for trial in range(100):
        n = rng.randint(8, 10)
        while True:
            masks = tuple(rng.getrandbits(n) for _ in range(8))
            if rank(BitMatrix(8, n, masks)) == 8:
                break
        labeled = LabeledSet(
            tuple(BitVector(n, mk) for mk in masks),
            tuple(rng.getrandbits(1) for _ in range(8)),
            n,
        )
        oracle = make_span_oracle(labeled)
        t = random_reduced_tree(rng, n, 3)
        exact = exact_distance(t, oracle.enumerate_weighted())
        est = estimate_distance(t, oracle, tol, 0.999, random.Random(500 + trial))
        assert abs(est - exact) <= tol


# ---------------------------------------------------------------- text format


def test_format_parse_round_trip():
    # One line per distinct node, children first, named by line number.
    t = Node(2, Leaf(0), Node(1, Leaf(1), Leaf(0)))
    text = format_tree(t)
    assert text == "l0\nl1\nl0\nq1 2 3\nq2 1 4"
    assert parse_tree(text) == t
    assert parse_tree(format_tree(Leaf(1))) == Leaf(1)
    # A shared node is one line, and parses back as one node.
    dag = parity_to_tree(index_set(2, 5))
    assert format_tree(dag) == "l0\nl1\nq5 1 2\nq5 2 1\nq2 3 4"
    parsed = parse_tree(format_tree(dag) + "\n")
    assert parsed == dag and parsed.low.low is parsed.high.high


def test_parse_keeps_repeated_queries():
    # Every consumer follows the branch the first query fixed, so the
    # text is read as written.
    t = parse_tree("l1\nl0\nq1 1 2\nq1 3 1")
    assert t == Node(1, Node(1, Leaf(1), Leaf(0)), Leaf(1))
    assert truth_table(t, 1) == truth_table(Node(1, Leaf(1), Leaf(1)), 1)


def test_parse_round_trip_random():
    rng = random.Random(23)
    for _ in range(60):
        t = random_reduced_tree(rng, 6, 4)
        assert parse_tree(format_tree(t)) == t


def test_parse_rejections():
    for bad in (
        "", "l2", "x1", "q1", "q1 1", "q1 1 1", "l0 l1", "l0\nq0 1 1", "l0\nq1 1 2",
        "l0\nq1 0 1", "l0\nq1 1 x", "l0\nq+1 1 1", "l0\n\nq1 1 1", "l0\nl1",
        "l0\nl1\nq1 1 1", "l0\nq1 1 1 1", "l0\nq 1 1",
        # Non-ASCII digits, which str.isdecimal and int() take.
        "l0\nl1\nq\u0661 1 2", "l0\nl1\nq1 \u0661 2", "l0\nl1\nq1 1 \uff12",
    ):
        with pytest.raises(FormatError):
            parse_tree(bad)


def test_format_parse_round_trip_of_a_depth_200_parity_dag():
    # 2**200 leaves on 2*200 + 1 nodes: one line each.
    t = parity_to_tree(index_set(*range(1, 201)))
    with cpu_limit(1):
        text = format_tree(t)
        assert len(text.splitlines()) == 2 * 200 + 1
        assert parse_tree(text) == t
