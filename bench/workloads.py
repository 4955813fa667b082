"""The four workloads: set-up from a seed, ops, and answer checks.

Every instance is built during set-up; an op hands one of them to the
public ``ncplift`` API.  Calls go through module attributes
(``reduction.search``, ``instance.brute_force_nearest``) so that a traced
run can wrap them.

Planted supports are stratified.  How long the exhaustive scans run
depends on where the first solution sits in (weight, lex) order: the
learner stops at its first exact fit, brute force at its first hit.  With
independent uniform supports that position, and so the op time, ranges
over a factor of 30 from instance to instance, and a run of ten or twenty
ops would measure the draw more than the program.  So a pool of P
instances splits the lex ranks of weight-k supports into P equal strata,
draws one support uniformly inside each, and visits the strata in
bit-reversed order so that any prefix of the pool is spread evenly over
the range.  In ``solve-exact`` each support is uniform over its stratum.
In the search and decide workloads, for the same reason, a support is
drawn only among those of its stratum that are the first solution of
their own syndrome under the drawn matrix (the matrix is redrawn until
the stratum has one), so an accidental sparser or earlier solution does
not cut a scan short at a random point.  Each stratum is then uniform
over its first-solution supports, not over all its supports.  A later
support in lex order has more earlier supports that may shadow it, so
the pool leans toward earlier supports; most on ``search-scan``, where
the 988 supports of weight <= 3 share 1024 syndromes.

Set-up finds those supports, and the syndromes that far instances need,
by enumerating every support up to the weight cap once per matrix, and
then certifies each instance with the package's own brute force.  That
enumeration is the harness's work, not the program's: set-up passes
every call into the package through a ``CpuMeter``, and the set-up time
reported is the CPU time of those calls alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from random import Random
from typing import Callable

from ncplift import instance, learners, reduction
from ncplift.f2 import BitVector, mat_vec
from ncplift.instance import SyndromeInstance

from closedloop import Op

CFG = reduction.ReductionConfig()


class CpuMeter:
    """Calls ``fn(*args)`` and adds the CPU seconds it took to ``seconds``."""

    def __init__(self) -> None:
        self.seconds = 0.0

    def __call__(self, fn, *args):
        start = time.process_time()
        try:
            return fn(*args)
        finally:
            self.seconds += time.process_time() - start


def lex_unrank(rank: int, n: int, k: int) -> tuple[int, ...]:
    """The k-subset of range(n) at position ``rank`` in lexicographic order."""
    if not 0 <= rank < comb(n, k):
        raise ValueError("rank out of range")
    out = []
    v = 0
    for i in range(k):
        while True:
            below = comb(n - 1 - v, k - 1 - i)
            if rank < below:
                break
            rank -= below
            v += 1
        out.append(v)
        v += 1
    return tuple(out)


def bit_reversed_order(count: int) -> list[int]:
    """0 .. count-1 ordered by their bit-reversed value, so every prefix
    is spread evenly over the range."""
    width = max(1, (count - 1).bit_length())
    return sorted(range(count), key=lambda j: int(f"{j:0{width}b}"[::-1], 2))


def strata(total: int, count: int) -> list[range]:
    """``count`` equal ranges of lex rank over ``total`` supports, in
    bit-reversed order."""
    return [range(s * total // count, (s + 1) * total // count) for s in bit_reversed_order(count)]


def first_supports(h, w: int) -> dict[int, tuple[int, ...]]:
    """Each syndrome that a support of weight <= w reaches, mapped to the
    first such support in (weight, lex) order: the order in which brute
    force and the learner's scan meet solutions."""
    cols = h.column_masks()
    first: dict[int, tuple[int, ...]] = {0: ()}
    for size in range(1, w + 1):
        for supp in combinations(range(h.cols), size):
            first.setdefault(_syndrome(cols, supp), supp)
    return first


def _syndrome(cols: list[int], support: tuple[int, ...]) -> int:
    acc = 0
    for j in support:
        acc ^= cols[j]
    return acc


def _uniform_h(rng: Random, n: int, m: int, meter: CpuMeter):
    """Uniform full-rank m x n parity-check matrix."""
    return meter(instance.random_planted, n, m, 0, rng.getrandbits(64))[0].h


def _planted(h, support: tuple[int, ...], alpha: Fraction) -> tuple[SyndromeInstance, BitVector]:
    x = BitVector.from_support((j + 1 for j in support), h.cols)
    return SyndromeInstance(h, mat_vec(h, x), len(support), alpha), x


def planted(
    rng: Random, n: int, m: int, k: int, ranks: range, alpha: Fraction, meter: CpuMeter
) -> SyndromeInstance:
    """Planted instance whose support is uniform over ``ranks``."""
    h = _uniform_h(rng, n, m, meter)
    return meter(_planted, h, lex_unrank(ranks[rng.randrange(len(ranks))], n, k), alpha)[0]


def planted_first(
    rng: Random, n: int, m: int, k: int, ranks: range, alpha: Fraction, meter: CpuMeter
) -> SyndromeInstance:
    """Planted instance whose support, drawn from ``ranks``, is the first
    solution of its syndrome in (weight, lex) order; certified by brute
    force."""
    while True:
        h = _uniform_h(rng, n, m, meter)
        first = first_supports(h, k)
        cols = h.column_masks()
        own = [
            supp for supp in (lex_unrank(r, n, k) for r in ranks)
            if first[_syndrome(cols, supp)] == supp
        ]
        if own:
            inst, x = meter(_planted, h, rng.choice(own), alpha)
            if meter(instance.brute_force_nearest, inst, k) != x:
                raise RuntimeError("brute force disagrees with the set-up enumeration")
            return inst


def far_instance(
    rng: Random, n: int, m: int, k: int, alpha: Fraction, meter: CpuMeter
) -> SyndromeInstance:
    """Target uniform among the syndromes that no support of weight 3k
    reaches; certified by brute force."""
    while True:
        h = _uniform_h(rng, n, m, meter)
        reached = first_supports(h, 3 * k)
        far = [t for t in range(1 << m) if t not in reached]
        if far:
            inst = meter(SyndromeInstance, h, BitVector(m, rng.choice(far)), k, alpha)
            if meter(instance.brute_force_nearest, inst, 3 * k) is not None:
                raise RuntimeError("brute force disagrees with the set-up enumeration")
            return inst


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    setup: Callable[[int, CpuMeter], list]
    op: Callable[[list, int, Callable, Random], Op]
    ops_per_instance: int = 1

    def pass_ops(self, pool: list) -> int:
        """Ops in one pass over the pool: op i is op i % pass_ops."""
        return self.ops_per_instance * len(pool)


def _search_setup(n: int, m: int, k: int, pool: int):
    def setup(seed: int, meter: CpuMeter) -> list:
        rng = Random(f"setup/{seed}")
        return [
            planted_first(rng, n, m, k, ranks, Fraction(1), meter)
            for ranks in strata(comb(n, k), pool)
        ]
    return setup


def _search_op(pool: list, i: int, learner, rng: Random) -> Op:
    inst = pool[i % len(pool)]

    def check(rep) -> bool:
        return rep.solution is not None and reduction.verify_certificate(inst, rep.solution, inst.k)
    return Op("planted", lambda: reduction.search(inst, CFG, learner, rng), check)


DECIDE_N, DECIDE_M, DECIDE_K, DECIDE_ALPHA, DECIDE_POOL = 14, 12, 2, Fraction(3), 32


def _decide_setup(seed: int, meter: CpuMeter) -> list:
    """Planted and certified-far instances, alternating, planted first."""
    rng = Random(f"setup/{seed}")
    n, m, k, alpha = DECIDE_N, DECIDE_M, DECIDE_K, DECIDE_ALPHA
    out = []
    for ranks in strata(comb(n, k), DECIDE_POOL):
        out.append(("planted", planted_first(rng, n, m, k, ranks, alpha, meter)))
        out.append(("far", far_instance(rng, n, m, k, alpha, meter)))
    return out


def _decide_op(pool: list, i: int, learner, rng: Random) -> Op:
    kind, inst = pool[i % len(pool)]
    return Op(
        kind,
        lambda: reduction.decide(inst, CFG, learner, rng),
        lambda rep: rep.accepted == (kind == "planted"),
    )


SOLVE_N, SOLVE_M, SOLVE_K, SOLVE_POOL = 64, 48, 5, 8


def _solve_setup(seed: int, meter: CpuMeter) -> list:
    # At n=64, m=48 another solution of weight <= 5 turns up with
    # probability about 3e-8, so the planted support is not certified
    # first here; certifying would cost a whole hit op per instance.
    rng = Random(f"setup/{seed}")
    return [
        planted(rng, SOLVE_N, SOLVE_M, SOLVE_K, ranks, Fraction(1), meter)
        for ranks in strata(comb(SOLVE_N, SOLVE_K), SOLVE_POOL)
    ]


def _solve_op(pool: list, i: int, learner, rng: Random) -> Op:
    """Op 2j is a miss (cap k-1) and op 2j+1 a hit (cap k) on instance j."""
    inst = pool[(i // 2) % len(pool)]
    if i % 2 == 0:
        cap = inst.k - 1
        return Op(
            "miss",
            lambda: instance.brute_force_nearest(inst, cap),
            lambda x: x is None or reduction.verify_certificate(inst, x, cap),
        )
    return Op(
        "hit",
        lambda: instance.brute_force_nearest(inst, inst.k),
        lambda x: x is not None and reduction.verify_certificate(inst, x, inst.k),
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "search-extract",
            "search on planted n=24 m=16 k=2: extraction-bound (~88% in extract_parity), "
            "where closed-form extraction must show",
            _search_setup(24, 16, 2, 8),
            _search_op,
        ),
        Workload(
            "search-scan",
            "search on planted n=18 m=10 k=3: bound by the learner's C(36,<=6) scan, "
            "where meet-in-the-middle must show; extraction ~2%",
            _search_setup(18, 10, 3, 12),
            _search_op,
        ),
        Workload(
            "decide-gate",
            "decide on planted (YES) and certified-far (NO) n=14 m=12 k=2 alpha=3: lifted "
            "sampling ~40% of an op; the scan exits early on YES and runs in full on NO",
            _decide_setup,
            _decide_op,
        ),
        Workload(
            "solve-exact",
            "brute_force_nearest on planted n=64 m=48 k=5, caps k (hits) and k-1 "
            "(exhaustive misses): the only brute-force layer workload, no learning",
            _solve_setup,
            _solve_op,
            ops_per_instance=2,
        ),
    )
}

LEARNER = learners.exhaustive_parity_learner


def op_rng(seed: int, i: int) -> Random:
    return Random(f"op/{seed}/{i}")
