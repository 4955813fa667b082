"""Tests of the benchmark's own logic.

Run from the repository root with ``python3 -m pytest bench``; the
repository's own suite (``tests/``) does not collect them.
"""

from __future__ import annotations

import json
import os
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import comb
from random import Random

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import ncplift.instance  # noqa: E402
import ncplift.reduction  # noqa: E402
from closedloop import (  # noqa: E402
    ERROR, OK, REF_NOMINAL_S, TIMEOUT, WRONG, Op, Record, Reference, closed_loop, end_to_end,
    nearest_rank, p90_or_none, per_pool_op, run_op,
)
from run import REPORTED_E2E, correct  # noqa: E402
from spans import (  # noqa: E402
    LAYER_METRICS, OP_SPAN, SETUP_SPAN, Span, Tracer, layer_metrics, patched, self_times,
)
from workloads import (  # noqa: E402
    WORKLOADS, CpuMeter, far_instance, first_supports, lex_unrank, planted_first, strata,
)


def test_self_times_on_hand_built_tree():
    # op [0, 10] has children a [1, 4] and b [5, 9]; a has a folded leaf
    # of 3 calls busy 1.5 s in total; b has child c [6, 7].
    spans = [
        Span("op", 0.0, 10.0, -1, 0, busy=10.0),
        Span("a", 1.0, 4.0, 0, 0, busy=3.0),
        Span("leaf", 1.5, 3.5, 1, 0, calls=3, busy=1.5),
        Span("b", 5.0, 9.0, 0, 0, busy=4.0),
        Span("c", 6.0, 7.0, 3, 0, busy=1.0),
    ]
    assert self_times(spans) == [3.0, 1.5, 1.5, 3.0, 1.0]


def test_tracer_nests_spans_and_folds_leaves():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.wrap(lambda f: f() + f(), "outer")
    leaf = tracer.wrap_leaf(lambda: 1, "leaf")
    assert outer(leaf) == 2
    names = [(s.name, s.parent, s.calls) for s in tracer.spans]
    assert names == [("outer", -1, 1), ("leaf", 0, 2)]
    assert tracer.stack == [-1]
    assert self_times(tracer.spans)[0] == tracer.spans[0].busy - tracer.spans[1].busy


def test_p90_needs_one_hundred_ops():
    assert p90_or_none([1.0] * 99) is None
    values = [float(i) for i in range(1, 101)]
    assert p90_or_none(values) == 90.0
    assert nearest_rank(values, 50) == 50.0
    assert nearest_rank([3.0, 1.0, 2.0], 50) == 2.0


def test_failed_ops_are_counted_never_dropped():
    def boom():
        raise RuntimeError("op failed")

    ops = [
        Op("good", lambda: 1, lambda x: x == 1),
        Op("raises", boom, lambda x: True),
        Op("slow", lambda: time.sleep(5), lambda x: True),
        Op("wrong", lambda: 2, lambda x: x == 1),
    ]
    loop = closed_loop(lambda i: ops[i], cap_s=0.05, count=len(ops))
    assert [r.outcome for r in loop.records] == [OK, ERROR, TIMEOUT, WRONG]
    assert loop.records[2].seconds < 1.0
    assert loop.failed == 3
    metrics = end_to_end(loop, setup_s=0.1)
    assert metrics["fail_frac"] == 0.75
    assert metrics["op_s.p90"] is None


def test_one_timed_out_op_makes_the_run_incorrect():
    ops = [
        Op("good", lambda: 1, lambda x: x == 1),
        Op("slow", lambda: time.sleep(5), lambda x: True),
    ]
    good = closed_loop(lambda i: ops[0], cap_s=0.05, count=2)
    slow = closed_loop(lambda i: ops[i], cap_s=0.05, count=2)
    assert [r.outcome for r in slow.records] == [OK, TIMEOUT]
    assert correct(True, good)
    assert not correct(True, slow)
    assert not correct(True, good, slow)
    assert not correct(False, good)


def test_timed_loop_runs_at_least_one_op():
    loop = closed_loop(lambda i: Op("k", lambda: i, lambda x: True), cap_s=1.0, seconds=1e-9)
    assert len(loop.records) >= 1


def test_timed_loop_completes_the_first_pass():
    loop = closed_loop(
        lambda i: Op("k", lambda: i, lambda x: True), cap_s=1.0, seconds=1e-9, pass_ops=5
    )
    assert [r.key for r in loop.records[:5]] == [0, 1, 2, 3, 4]
    assert all(r.norm_s >= 0.0 for r in loop.records)


def test_reference_scales_each_stretch_by_its_own_samples():
    samples = iter([0.05, 0.05, 0.10, 0.03])
    ref = Reference(every_s=1.0, sample=lambda: next(samples))
    ref.add(0.5)
    ref.add(0.5)  # closes with sample 0.05: scale nominal / 0.05
    ref.add(2.0)  # closes with sample 0.10: scale nominal / 0.075
    ref.add(0.1)
    ref.close()  # sample 0.03: scale nominal / 0.065
    ref.close()  # nothing open, no sample taken
    assert ref.samples == [0.05, 0.05, 0.10, 0.03]
    expected = [0.5 / 0.05, 0.5 / 0.05, 2.0 / 0.075, 0.1 / 0.065]
    assert ref.scaled == pytest.approx([REF_NOMINAL_S * e for e in expected])


def test_rounds_inside_ops_weigh_in_the_reference_speed():
    samples = iter([0.05, 0.05])
    ref = Reference(every_s=10.0, sample=lambda: next(samples))
    ref.add(1.0, rounds_cpu_s=0.1, rounds=8)  # eight rounds make one whole loop
    ref.close()
    assert ref.scaled == pytest.approx([REF_NOMINAL_S / ((0.05 + 0.05 + 0.1) / 3)])


def test_reference_rounds_inside_a_long_op_are_left_out_of_it():
    def busy():
        start = time.thread_time()
        while time.thread_time() - start < 0.3:
            pass

    ref = Reference(every_s=10.0)
    cpu0 = time.thread_time()
    record = run_op(Op("busy", busy, lambda x: True), 5.0, 0, ref)
    total = time.thread_time() - cpu0
    assert record.outcome == OK
    assert ref._rounds >= 3
    assert record.cpu_s + ref._rounds_cpu == pytest.approx(total, abs=0.02)


def test_every_op_of_the_pool_weighs_the_same():
    records = [
        Record("a", 0, 1.0, 1.0, OK, norm_s=1.0),
        Record("a", 0, 1.0, 1.0, OK, norm_s=3.0),
        Record("a", 0, 1.0, 1.0, OK, norm_s=2.0),
        Record("b", 1, 1.0, 1.0, OK, norm_s=8.0),
    ]
    assert per_pool_op(records) == pytest.approx(4.0)  # sqrt(2 * 8)


def _trace_one_op(call) -> tuple[Tracer, Tracer]:
    setup = Tracer()
    setup.close(setup.open(SETUP_SPAN))
    tracer = Tracer()
    with patched(tracer):
        tracer.op = 0
        root = tracer.open(OP_SPAN)
        call()
        tracer.close(root)
    return tracer, setup


def test_brute_force_miss_counts_every_support():
    n, cap = 12, 3
    inst = far_instance(Random(3), n, 10, 1, Fraction(1), CpuMeter())
    tracer, setup = _trace_one_op(lambda: ncplift.instance.brute_force_nearest(inst, cap))
    metrics = layer_metrics(tracer, ["miss"], setup)
    assert metrics["instance.brute_force_nearest.supports"] == sum(comb(n, j) for j in range(cap + 1))
    assert metrics["learners.scan.candidates"] == 0


def test_patches_are_restored():
    original = ncplift.reduction.extract_parity
    with pytest.raises(RuntimeError):
        with patched(Tracer()):
            assert ncplift.reduction.extract_parity is not original
            raise RuntimeError("leave the block early")
    assert ncplift.reduction.extract_parity is original


def test_lex_unrank_matches_combinations_order():
    for rank, combo in enumerate(combinations(range(7), 3)):
        assert lex_unrank(rank, 7, 3) == combo


def test_strata_cover_every_rank_once_in_bit_reversed_order():
    ranges = strata(91, 32)
    assert sorted(r for rng in ranges for r in rng) == list(range(91))
    assert [rng.start for rng in ranges[:4]] == [0, 45, 22, 68]


def test_set_up_enumeration_agrees_with_brute_force():
    rng = Random(5)
    for ranks in strata(comb(12, 2), 4):
        inst = planted_first(rng, 12, 8, 2, ranks, Fraction(1), CpuMeter())
        first = first_supports(inst.h, 2)
        x = ncplift.instance.brute_force_nearest(inst, 2)
        assert first[inst.t.mask] == tuple(j - 1 for j in x.support())
        assert inst.k == 2 and x.sparsity == 2


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert tuple(m["name"] for m in spec["end_to_end"]) == REPORTED_E2E
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
