"""Helpers that only the tests use, none of them called by the pipelines,
the CLI or the selftest: tree transforms and distances that the tests
compare the closed forms against (the reduced form of a tree, its
complement, the exact distance to a labeled enumeration), the fold of a
lifted string, a learner that returns a fixed parity, a finite labeled
distribution that draws examples, matrices written as rows of 0/1
text, the identity matrix, a random labeled basis, and a CPU-time
limit."""

import math
import signal
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from ncplift.dtree import Leaf, Node, eval_tree, walk
from ncplift.f2 import BitMatrix, BitVector, parse_matrix
from ncplift.gadget import FinitePmf, GadgetParams
from ncplift.instance import LabeledSet, _independent_rows, _randbelow
from ncplift.learners import parity_to_tree


def reduce_tree(t):
    """Collapse queries that repeat an ancestor's coordinate."""
    def walk(node, fixed):
        if isinstance(node, Leaf):
            return node
        if node.coord in fixed:
            return walk(node.high if fixed[node.coord] else node.low, fixed)
        low = walk(node.low, {**fixed, node.coord: 0})
        high = walk(node.high, {**fixed, node.coord: 1})
        return Node(node.coord, low, high)
    return walk(t, {})


def complement_tree(t):
    """Same queries, every leaf label flipped, shared nodes kept shared."""
    def step(node):
        if isinstance(node, Leaf):
            return Leaf(1 - node.label)
        return Node(node.coord, (yield node.low), (yield node.high))
    return walk(step, t)


def exact_distance(t, weighted):
    """Exact weighted disagreement with a labeled enumeration."""
    total = Fraction(0)
    for point, weight, label in weighted:
        if eval_tree(t, point) != label:
            total += weight
    return total


def blockwise_parity(y: BitVector, params: GadgetParams) -> BitVector:
    """Fold a lifted string to its per-block parities."""
    if y.length != params.lifted_n:
        raise ValueError(f"expected length {params.lifted_n}, got {y.length}")
    ell = params.ell
    ones = (1 << ell) - 1
    out = 0
    ym = y.mask
    for i in range(params.base_n):
        if ((ym >> (i * ell)) & ones).bit_count() & 1:
            out |= 1 << i
    return BitVector(params.base_n, out)


def planted_learner(s):
    """Learner that ignores its examples and returns the given parity.

    Test double for exercising the downstream pipeline with a known
    hypothesis.
    """
    def learner(oracle, budget, rng):
        return parity_to_tree(s)
    return learner


@dataclass(frozen=True)
class SampledPmf(FinitePmf):
    """A ``FinitePmf`` that draws examples one at a time, so that a
    ``GadgetOracle`` can sample over it.

    Sampling inverts the cumulative distribution with a uniform draw over
    the common denominator, so it is exact and fully determined by the
    seed.
    """

    _denom: int = field(init=False, compare=False, repr=False)
    _cum: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        denom = math.lcm(*(pr.denominator for pr in self.probs)) if self.probs else 1
        cum = []
        acc = 0
        for pr in self.probs:
            acc += pr.numerator * (denom // pr.denominator)
            cum.append(acc)
        object.__setattr__(self, "_denom", denom)
        object.__setattr__(self, "_cum", tuple(cum))

    def sample(self, rng: Random) -> tuple[BitVector, int]:
        u = _randbelow(rng, self._denom)
        for i, edge in enumerate(self._cum):
            if u < edge:
                return self.points[i], self.labels[i]
        raise AssertionError("cumulative walk fell off the end")


def matrix(*rows):
    """The matrix whose rows are the given 0/1 strings, coordinate 1
    first, read by the package's text parser."""
    return parse_matrix(f"{len(rows)} {len(rows[0])}\n" + "".join(r + "\n" for r in rows))


def identity(n):
    """The n x n identity matrix."""
    return BitMatrix(n, n, tuple(1 << i for i in range(n)))


def random_labeled_basis(rng, n, m):
    """m independent random points of length n with random labels."""
    masks = _independent_rows(rng, n, m).row_masks
    points = tuple(BitVector(n, mk) for mk in masks)
    return LabeledSet(points, tuple(rng.getrandbits(1) for _ in masks), n)


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
