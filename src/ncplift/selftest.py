"""Deterministic acceptance suites for the whole toolkit.

Each criterion checks one load-bearing exact fact at desk scale, with
fixed seeds so a run is reproducible bit for bit:

1.  span-dichotomy: the disagreement of any small parity over an
    enumerated span is exactly 0 or exactly 1/2.
2.  restriction-probability-bound: every restriction probability under
    the lifted distribution respects the per-size bound, exactly.
3.  block-correlation-dichotomy: lifted agreement is exactly 1/2 for
    block-incomplete parities and equals the base agreement otherwise.
4.  tree-fourier-support: nonzero tree coefficients sit inside the
    path support sets, at most 4**depth of them.
5.  prune-error-bound: cutting a tree at c*ceil(log2(size)) costs at
    most size**(1 - c*(1 - 1/ell)) extra distance.
6.  parity-extraction-advantage: a tree at distance 1/2 - gamma yields
    a candidate parity, and the first one has agreement at least
    1/2 + gamma/4**depth.
7.  search-end-to-end: planted instances are solved with certificates.
8.  decide-end-to-end: planted instances accepted, certified-far
    instances rejected.
9.  certificate-soundness: every certificate returned along the way
    satisfies H x = t, rechecked exactly.

``run_all`` executes them in order and reports one result per
criterion; ``inject_fault`` deliberately corrupts one computed value so
the harness can be seen to fail.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations
from random import Random

from .dtree import (
    DecisionTree,
    Leaf,
    Node,
    ParityIndexSet,
    exact_uniform_fourier,
    path_masks,
    path_support_sets,
    prune,
)
from .f2 import BitVector, mat_vec
from .gadget import (
    FinitePmf,
    GadgetOracle,
    GadgetParams,
    Restriction,
    enumerate_lifted,
    exact_lifted_agreement,
    exact_lifted_tree_error,
    exact_restriction_probability,
    is_block_complete,
    lift_parity,
    unlift_parity,
)
from .instance import (
    LabeledSet,
    SyndromeInstance,
    _independent_rows,
    brute_force_nearest,
    random_planted,
)
from .learners import exhaustive_parity_learner, parity_to_tree
from .reduction import (
    PRUNE_CONSTANT,
    ReductionConfig,
    decide,
    extract_parity,
    search,
    verify_certificate,
)
from .span import exact_disagreement, make_span_oracle

__all__ = ["CriterionResult", "run_all", "CRITERIA", "FAULT_IDS"]

FAULT_IDS = ("block-correlation",)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    seconds: float


@dataclass(frozen=True)
class _Scale:
    dichotomy_sets: int
    restriction_pmfs: int
    restriction_max_n: int
    correlation_sources: int
    fourier_trees: int
    prune_trees: int
    extraction_cases: int
    search_seeds: int
    search_target: int
    decide_each: int
    decide_target: int


_FULL = _Scale(200, 20, 4, 100, 200, 100, 100, 100, 95, 50, 48)
_FAST = _Scale(50, 5, 3, 25, 50, 30, 25, 25, 23, 12, 11)


# ---------- shared generators ----------


def _random_labeled(rng: Random, n: int, m: int) -> LabeledSet:
    masks = _independent_rows(rng, n, m).row_masks
    labels = tuple(rng.getrandbits(1) for _ in range(m))
    return LabeledSet(tuple(BitVector(n, mk) for mk in masks), labels, n)


def _random_pmf(rng: Random, n: int) -> FinitePmf:
    """Random labeled distribution with small integer weights."""
    size = rng.randint(1, 1 << n)
    support = sorted(rng.sample(range(1 << n), size))
    weights = [rng.randint(1, 64) for _ in support]
    total = sum(weights)
    points = tuple(BitVector(n, mk) for mk in support)
    labels = tuple(rng.getrandbits(1) for _ in support)
    probs = tuple(Fraction(w, total) for w in weights)
    return FinitePmf(points, probs, labels, n)


def _random_tree_depth(rng: Random, arity: int, max_depth: int) -> DecisionTree:
    def build(depth: int, avail: list[int]) -> DecisionTree:
        if depth == max_depth or not avail or rng.random() < 0.3:
            return Leaf(rng.getrandbits(1))
        coord = avail[rng.randrange(len(avail))]
        rest = [c for c in avail if c != coord]
        return Node(coord, build(depth + 1, rest), build(depth + 1, rest))
    return build(0, list(range(1, arity + 1)))


def _random_tree_sized(rng: Random, arity: int, size: int, deep: bool) -> DecisionTree:
    """Reduced tree with up to ``size`` leaves; ``deep`` biases toward a
    long spine so pruning has something to cut."""
    def build(leaves: int, avail: list[int]) -> DecisionTree:
        if leaves == 1 or not avail:
            return Leaf(rng.getrandbits(1))
        coord = avail[rng.randrange(len(avail))]
        rest = [c for c in avail if c != coord]
        if deep:
            split = 1 if rng.random() < 0.9 else rng.randint(1, leaves - 1)
        else:
            split = rng.randint(1, leaves - 1)
        if rng.getrandbits(1):
            return Node(coord, build(split, rest), build(leaves - split, rest))
        return Node(coord, build(leaves - split, rest), build(split, rest))
    return build(size, list(range(1, arity + 1)))


# ---------- criterion 1 ----------


def _criterion_span_dichotomy(scale: _Scale, ctx: dict) -> tuple[bool, str]:
    rng = Random(101)
    half = Fraction(1, 2)
    zero = Fraction(0)
    checked = 0
    for _ in range(scale.dichotomy_sets):
        n = rng.randint(2, 14)
        m = rng.randint(1, min(n, 10))
        labeled = _random_labeled(rng, n, m)
        oracle = make_span_oracle(labeled)
        pts = [p.mask for p in labeled.points]
        labs = labeled.labels
        for sz in range(5):
            for combo in combinations(range(1, n + 1), sz):
                s = ParityIndexSet(combo)
                consistent = all(
                    (s.mask & pm).bit_count() & 1 == lb for pm, lb in zip(pts, labs)
                )
                dis = exact_disagreement(oracle, s)
                want = zero if consistent else half
                if dis != want:
                    return False, (
                        f"parity {combo} over a {m}-dim span: disagreement {dis}, "
                        f"expected {want}"
                    )
                checked += 1
    return True, f"{checked} parity/span pairs, all exactly 0 or 1/2"


# ---------- criterion 2 ----------


def _pattern_classes(ell: int, n: int) -> Counter:
    """Every concrete restriction pattern of ``n`` blocks of ``ell``
    coordinates, grouped by the three things the bound's test reads:
    (partial bit count, full-block mask, required parities) -> number of
    patterns.  Per block there are C(ell, c) * 2**c partial ways of
    each c < ell and 2**(ell-1) full ways of each parity, so the counts
    sum to 3**(ell*n)."""
    partial = [math.comb(ell, c) << c for c in range(ell)]
    full = 1 << (ell - 1)
    classes = Counter({(0, 0, 0): 1})
    for b in range(n):
        grown: Counter = Counter()
        for (p_bits, fm, rq), count in classes.items():
            for c, ways in enumerate(partial):
                grown[p_bits + c, fm, rq] += count * ways
            for par in (0, 1):
                grown[p_bits, fm | 1 << b, rq | par << b] += count * full
        classes = grown
    return classes


def _joint_table(pmf: FinitePmf, n: int) -> tuple[list[list[int]], int]:
    """Integer numerators of Pr[x & fmask == req] over a common
    denominator, indexed [fmask][req]."""
    denom = math.lcm(*(pr.denominator for pr in pmf.probs))
    size = 1 << n
    table = [[0] * size for _ in range(size)]
    for pt, pr, _lb in pmf.enumerate_weighted():
        w = pr.numerator * (denom // pr.denominator)
        xm = pt.mask
        for fm in range(size):
            table[fm][xm & fm] += w
    return table, denom


def _sweep_patterns(classes, powed, dl) -> str | None:
    """Check every pattern class once; probability p with R restricted
    coordinates must satisfy p**ell <= 2**-((ell-1) R), which reduces to
    powed[fmask][req] <= dl << partial_bits (the full-block 2**-(ell-1)
    factors cancel against their share of R).  Returns a description of
    the first violation, else None."""
    for p_bits, fm, rq in classes:
        if powed[fm][rq] > dl << p_bits:
            return f"pattern partial_bits={p_bits} full={fm:b} req={rq:b}"
    return None


def _random_restriction(rng: Random, params: GadgetParams) -> Restriction:
    assignment = {}
    for c in range(1, params.lifted_n + 1):
        if rng.getrandbits(1):
            assignment[c] = rng.getrandbits(1)
    return Restriction.of(assignment)


def _pattern_of(rho: Restriction, params: GadgetParams) -> tuple[int, int, int]:
    """(partial bit count, full-block mask, required parities) of a
    concrete restriction; mirrors the closed-form decomposition."""
    ell = params.ell
    counts: dict[int, int] = {}
    pars: dict[int, int] = {}
    for c, v in zip(rho.coords, rho.values):
        b = (c - 1) // ell
        counts[b] = counts.get(b, 0) + 1
        pars[b] = pars.get(b, 0) ^ v
    p_bits = 0
    fm = 0
    rq = 0
    for b, cnt in counts.items():
        if cnt == ell:
            fm |= 1 << b
            if pars[b]:
                rq |= 1 << b
        else:
            p_bits += cnt
    return p_bits, fm, rq


def _all_restrictions(params: GadgetParams):
    arity = params.lifted_n
    for rmask in range(1 << arity):
        coords = [c for c in range(1, arity + 1) if rmask >> (c - 1) & 1]
        for vals in range(1 << len(coords)):
            yield Restriction(tuple(coords), BitVector(len(coords), vals))


def _fiber_probability_equality(pmf: FinitePmf, params: GadgetParams) -> tuple[bool, str]:
    lifted = list(enumerate_lifted(pmf, params))
    for rho in _all_restrictions(params):
        closed = exact_restriction_probability(pmf, rho, params)
        brute = Fraction(0)
        for y, w, _lb in lifted:
            if all((y.mask >> (c - 1)) & 1 == v for c, v in zip(rho.coords, rho.values)):
                brute += w
        if closed != brute:
            return False, f"closed form {closed} != fiber sum {brute} at {rho}"
    return True, ""


def _criterion_restriction_bound(scale: _Scale, ctx: dict) -> tuple[bool, str]:
    rng = Random(202)
    pairs_checked = 0
    spot_checked = 0
    fiber_checked = 0
    for ell in (2, 3):
        for n in range(1, scale.restriction_max_n + 1):
            params = GadgetParams(ell, n)
            classes = _pattern_classes(ell, n)
            for _ in range(scale.restriction_pmfs):
                pmf = _random_pmf(rng, n)
                table, denom = _joint_table(pmf, n)
                powed = [[v**ell for v in row] for row in table]
                dl = denom**ell
                bad = _sweep_patterns(classes, powed, dl)
                if bad is not None:
                    return False, f"bound violated at ell={ell} n={n}: {bad}"
                pairs_checked += sum(classes.values())
                # Tie the sweep's integer arithmetic to the public
                # closed form and the rational bound on a few concrete
                # restrictions.
                for _ in range(8):
                    rho = _random_restriction(rng, params)
                    val = exact_restriction_probability(pmf, rho, params)
                    p_bits, fm, rq = _pattern_of(rho, params)
                    shift = p_bits + (ell - 1) * fm.bit_count()
                    if val != Fraction(table[fm][rq], denom << shift):
                        return False, f"sweep numerators disagree with the public op at {rho}"
                    r_len = len(rho.coords)
                    if val**ell > Fraction(1, 1 << ((ell - 1) * r_len)):
                        return False, f"public op violates the bound at {rho}"
                    spot_checked += 1
                if n <= 2:
                    ok, msg = _fiber_probability_equality(pmf, params)
                    if not ok:
                        return False, msg
                    fiber_checked += 3 ** (ell * n)
    return True, (
        f"{pairs_checked} restriction patterns within the bound, "
        f"{spot_checked} closed-form spot checks, {fiber_checked} fiber equalities"
    )


# ---------- criterion 3 ----------


def _criterion_block_correlation(scale: _Scale, ctx: dict) -> tuple[bool, str]:
    rng = Random(303)
    bump = Fraction(1, 1000) if ctx.get("fault") == "block-correlation" else Fraction(0)
    half = Fraction(1, 2)
    checked = 0
    fiber_checked = 0
    for ell in (2, 3):
        for n in (1, 2, 3):
            params = GadgetParams(ell, n)
            arity = params.lifted_n
            for src_idx in range(scale.correlation_sources):
                pmf = _random_pmf(rng, n)
                lifted = (
                    list(enumerate_lifted(pmf, params))
                    if ell == 2 and n == 2 and src_idx < 10
                    else None
                )
                for smask in range(1 << arity):
                    s = ParityIndexSet.from_mask(smask)
                    ag = exact_lifted_agreement(pmf, s, params) + bump
                    if is_block_complete(s, params):
                        s_star = unlift_parity(s, params)
                        base_ag = Fraction(0)
                        for pt, pr, lb in pmf.enumerate_weighted():
                            if (s_star.mask & pt.mask).bit_count() & 1 == lb:
                                base_ag += pr
                        if ag != base_ag:
                            return False, (
                                f"ell={ell} n={n} S mask {smask:b}: lifted agreement "
                                f"{ag} != base agreement {base_ag}"
                            )
                    elif ag != half:
                        return False, (
                            f"ell={ell} n={n} S mask {smask:b}: block-incomplete "
                            f"agreement {ag} != 1/2"
                        )
                    checked += 1
                    if lifted is not None:
                        brute = Fraction(0)
                        for y, w, lb in lifted:
                            if (smask & y.mask).bit_count() & 1 == lb:
                                brute += w
                        if ag - bump != brute:
                            return False, f"agreement mismatch vs fiber sum at {smask:b}"
                        fiber_checked += 1
    return True, f"{checked} parities across sources, {fiber_checked} fiber equalities"


# ---------- criterion 4 ----------


def _criterion_fourier_support(scale: _Scale, ctx: dict) -> tuple[bool, str]:
    rng = Random(404)
    for case in range(scale.fourier_trees):
        n = rng.randint(2, 8)
        tree = _random_tree_depth(rng, n, 4)
        coeffs = exact_uniform_fourier(tree, n)
        supports = set(path_support_sets(path_masks(tree)))
        cap = 4**tree.depth
        if len(supports) > cap:
            return False, f"case {case}: {len(supports)} path sets exceeds 4**depth"
        for s, value in coeffs.items():
            if value and s not in supports:
                return False, (
                    f"case {case}: coefficient {value} at {s.indices} lies outside "
                    "the path support sets"
                )
        if len(coeffs) > cap:
            return False, f"case {case}: {len(coeffs)} nonzero coefficients exceeds cap"
    return True, f"{scale.fourier_trees} trees, coefficients contained and counted"


# ---------- criterion 5 ----------


def _criterion_prune_bound(scale: _Scale, ctx: dict) -> tuple[bool, str]:
    rng = Random(505)
    c = 3
    nontrivial = 0
    for case in range(scale.prune_trees):
        if case % 5 < 2:
            # Long-spine regime: the only shapes whose depth can exceed
            # 3*ceil(log2(size)) at size <= 16, so the cut really bites.
            n = rng.randint(7, 8)
            size, deep = rng.randint(14, 16), True
        else:
            n = rng.randint(3, 8)
            size, deep = rng.randint(2, 16), bool(rng.getrandbits(1))
        m = rng.randint(1, min(n, 8))
        span = make_span_oracle(_random_labeled(rng, n, m))
        params = GadgetParams(2, n)
        tree = _random_tree_sized(rng, 2 * n, size, deep)
        size = tree.size
        log_size = (size - 1).bit_length() if size > 1 else 0  # ceil(log2)
        pruned = prune(tree, c * log_size)
        delta = exact_lifted_tree_error(pruned, span, params) - exact_lifted_tree_error(
            tree, span, params
        )
        # With ell=2, c=3 the bound is size**(1 - c/2) = size**(-1/2);
        # compare squares to stay inside the rationals.
        if delta > 0 and delta * delta > Fraction(1, size):
            return False, (
                f"case {case}: pruning at depth {c * log_size} added {delta}, "
                f"above size**-1/2 for size {size}"
            )
        if pruned is not tree:
            nontrivial += 1
    return True, f"{scale.prune_trees} trees ({nontrivial} actually cut), bound held"


# ---------- criterion 6 ----------


def _corrupt_leaves(tree: DecisionTree, rng: Random, p_num: int, p_den: int) -> DecisionTree:
    if isinstance(tree, Leaf):
        if rng.randrange(p_den) < p_num:
            return Leaf(1 - tree.label)
        return tree
    return Node(
        tree.coord,
        _corrupt_leaves(tree.low, rng, p_num, p_den),
        _corrupt_leaves(tree.high, rng, p_num, p_den),
    )


def _criterion_extraction_advantage(scale: _Scale, ctx: dict) -> tuple[bool, str]:
    rng = Random(606)
    half = Fraction(1, 2)
    done = 0
    attempts = 0
    while done < scale.extraction_cases:
        attempts += 1
        if attempts > scale.extraction_cases * 40:
            return False, "could not assemble enough low-distance cases"
        n = rng.randint(2, 5)
        m = rng.randint(1, min(n, 6))
        params = GadgetParams(2, n)
        s_star = ParityIndexSet.from_iterable(rng.sample(range(1, n + 1), rng.randint(0, 2)))
        masks = _independent_rows(rng, n, m).row_masks
        labels = tuple((s_star.mask & mk).bit_count() & 1 for mk in masks)
        span = make_span_oracle(LabeledSet(tuple(BitVector(n, mk) for mk in masks), labels, n))
        if rng.random() < 0.3:
            tree = _random_tree_depth(rng, params.lifted_n, 4)
        else:
            tree = _corrupt_leaves(parity_to_tree(lift_parity(s_star, params)), rng, 1, 8)
        dist = exact_lifted_tree_error(tree, span, params)
        gamma = half - dist
        if gamma < Fraction(1, 8):
            continue
        found = extract_parity(tree, GadgetOracle(span, params))
        if not found:
            return False, f"distance {dist} (gamma {gamma}) but no candidate was extracted"
        top = exact_lifted_agreement(span, found[0], params)
        need = half + gamma / (4**tree.depth)
        if top < need:
            return False, (
                f"distance {dist} (gamma {gamma}) but top agreement {top} "
                f"is below {need} at depth {tree.depth}"
            )
        done += 1
    return True, f"{done} cases, top candidate always cleared 1/2 + gamma/4**depth"


# ---------- criteria 7 and 8 ----------


def _criterion_search(scale: _Scale, ctx: dict) -> tuple[bool, str]:
    cfg = ReductionConfig()
    hits = 0
    certs = ctx.setdefault("certificates", [])
    for seed in range(1, scale.search_seeds + 1):
        inst, _planted = random_planted(14, 10, 2, seed)
        rng = Random(7_000_000 + seed)
        report = search(inst, cfg, exhaustive_parity_learner, rng)
        if report.ok:
            x = report.solution
            certs.append((inst, x))
            if not verify_certificate(inst, x, PRUNE_CONSTANT * inst.k):
                return False, f"seed {seed}: returned certificate failed verification"
            if x.sparsity <= inst.k and mat_vec(inst.h, x).mask == inst.t.mask:
                hits += 1
    if hits < scale.search_target:
        return False, (
            f"only {hits}/{scale.search_seeds} runs recovered a weight-<=k "
            f"certificate (needed {scale.search_target})"
        )
    return True, (
        f"{hits}/{scale.search_seeds} runs returned a certificate of weight <= k; "
        "every returned vector verified"
    )


def _far_instance(rng: Random, n: int, m: int, k: int) -> SyndromeInstance:
    """Random instance certified by brute force to admit no solution of
    weight 3k."""
    while True:
        h = _independent_rows(rng, n, m)
        inst = SyndromeInstance(h, BitVector(m, rng.getrandbits(m)), k, Fraction(3))
        if brute_force_nearest(inst, 3 * k) is None:
            return inst


def _criterion_decide(scale: _Scale, ctx: dict) -> tuple[bool, str]:
    cfg = ReductionConfig()
    yes_ok = 0
    for i in range(scale.decide_each):
        inst, _x = random_planted(14, 12, 2, 8_000 + i)
        inst = replace(inst, alpha=Fraction(3))
        if decide(inst, cfg, exhaustive_parity_learner, Random(8_500_000 + i)).accepted:
            yes_ok += 1
    no_ok = 0
    gen = Random(909)
    for i in range(scale.decide_each):
        inst = _far_instance(gen, 14, 12, 2)
        if not decide(inst, cfg, exhaustive_parity_learner, Random(9_500_000 + i)).accepted:
            no_ok += 1
    if yes_ok < scale.decide_target:
        return False, f"only {yes_ok}/{scale.decide_each} planted instances accepted"
    if no_ok < scale.decide_target:
        return False, f"only {no_ok}/{scale.decide_each} certified-far instances rejected"
    return True, (
        f"{yes_ok}/{scale.decide_each} planted accepted, "
        f"{no_ok}/{scale.decide_each} certified-far rejected"
    )


# ---------- criterion 9 ----------


def _criterion_soundness(scale: _Scale, ctx: dict) -> tuple[bool, str]:
    certs = ctx.get("certificates", [])
    if not certs:
        return False, "no certificates were collected by the search criterion"
    for inst, x in certs:
        if mat_vec(inst.h, x).mask != inst.t.mask:
            return False, "a recorded certificate fails H x = t on recheck"
    return True, f"all {len(certs)} recorded certificates satisfy H x = t exactly"


CRITERIA = (
    ("span-dichotomy", _criterion_span_dichotomy),
    ("restriction-probability-bound", _criterion_restriction_bound),
    ("block-correlation-dichotomy", _criterion_block_correlation),
    ("tree-fourier-support", _criterion_fourier_support),
    ("prune-error-bound", _criterion_prune_bound),
    ("parity-extraction-advantage", _criterion_extraction_advantage),
    ("search-end-to-end", _criterion_search),
    ("decide-end-to-end", _criterion_decide),
    ("certificate-soundness", _criterion_soundness),
)


def run_all(level: str = "full", inject_fault: str | None = None) -> list[CriterionResult]:
    """Run every criterion at the given level ('fast' or 'full').

    ``inject_fault`` must be one of ``FAULT_IDS``; it perturbs the
    matching computed quantity, so the affected criterion must come
    back failed, demonstrating the checks are live.
    """
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    if inject_fault is not None and inject_fault not in FAULT_IDS:
        raise ValueError(f"unknown fault id {inject_fault!r}; known: {FAULT_IDS}")
    scale = _FULL if level == "full" else _FAST
    ctx: dict = {"fault": inject_fault}
    out = []
    for name, fn in CRITERIA:
        start = time.monotonic()
        try:
            passed, detail = fn(scale, ctx)
        except Exception as exc:  # a crash counts as a failure, not an abort
            passed, detail = False, f"exception: {exc!r}"
        out.append(CriterionResult(name, passed, detail, time.monotonic() - start))
    return out
