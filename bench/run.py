"""Benchmark of the ncplift pipelines: one workload, one run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload search-extract --seed 1 --seconds 24 --trace 0

The package is imported from ``src/`` of the checkout the script sits in,
never from an installed copy.  Set-up builds every instance from the seed,
repeatedly (at least five times and for at least half a CPU second, so
that a set-up of a few milliseconds is timed often enough to give a steady
median), checks that every build is identical and reports the median CPU
time one build spends in calls into the package, at reference speed (see
``closedloop``); the harness's own work of choosing supports and targets
is left out.  The ops then run in a closed loop for ``--seconds``, and at
least for one whole pass over the pool.

With ``--trace 0`` the run is untraced and reports the end-to-end
metrics.  With ``--trace 1`` it runs the ops untraced for half the time,
then the same ops again with spans around every call into the package,
and reports the per-layer metrics and the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Full results and spans go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

from closedloop import (
    E2E_UNITS, Op, Reference, closed_loop, end_to_end, nearest_rank, provenance, steal_seconds,
)
from spans import (
    LAYER_METRICS, OP_SPAN, SETUP_SPAN, Tracer, breakdown, layer_metrics, patched,
)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_MIN_REPEATS = 5
SETUP_MAX_REPEATS = 50
SETUP_MIN_SECONDS = 0.5
OP_CAP_S = 45.0

# End-to-end metrics in the final line; BENCHMARK.json lists the same,
# with their bounds.  The others are printed in the summary only.  On a
# shared host the raw CPU time of identical work swings by half within
# seconds and drifts between runs, and wall time adds the time other
# tenants steal; cpu_s_per_op.norm divides the host's speed out with the
# reference loop, and setup_s is scaled the same way.  fail_frac is
# carried by ``attempted``/``failed`` and is 0 when all is well.  op_s.p90
# needs 100 ops, which the search and solve workloads do not reach in a
# run.  op_s.p50 of a half-and-half mix of op kinds, or of scans that stop
# in lex-ordered clusters, sits in a gap between clusters and moves by a
# whole gap when the op count of a run changes by one.
REPORTED_E2E = ("setup_s", "cpu_s_per_op.norm", "peak_rss_mb")


def _import_package() -> str | None:
    """Put the checkout's src/ first on the path; an error text on failure."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "ncplift", "__init__.py")):
        return f"no src/ncplift under {ROOT}; the benchmark runs from a full checkout"
    sys.path.insert(0, src)
    import ncplift
    if os.path.dirname(os.path.dirname(os.path.abspath(ncplift.__file__))) != src:
        return f"ncplift was imported from {ncplift.__file__}, not from {src}"
    return None


def _setup(workload, seed: int) -> tuple[list, float, int, bool]:
    """The instance pool, the median CPU seconds one set-up spends in the
    package at reference speed, the number of set-ups, and whether every
    one built the same pool."""
    from workloads import CpuMeter

    ref = Reference(every_s=0.0)  # a reference sample after every set-up
    setups, spent = 0, 0.0
    pool = None
    same = True
    while setups < SETUP_MIN_REPEATS or (
        spent < SETUP_MIN_SECONDS and setups < SETUP_MAX_REPEATS
    ):
        meter = CpuMeter()
        built = workload.setup(seed, meter)
        ref.add(meter.seconds)
        setups, spent = setups + 1, spent + meter.seconds
        if pool is None:
            pool = built
        else:
            same = same and built == pool
    ref.close()
    return pool, statistics.median(ref.scaled), setups, same


def correct(same_pool: bool, *loops) -> bool:
    """True only when every set-up built the same pool and no op failed:
    a wrong answer, an exception and an overrun of the per-op cap all count."""
    return same_pool and all(loop.failed == 0 for loop in loops)


def _kind_lines(records) -> list[str]:
    kinds = sorted({r.kind for r in records})
    lines = []
    for kind in kinds:
        times = [r.seconds for r in records if r.kind == kind]
        lines.append(f"  {kind:<8} op_s.p50 {nearest_rank(times, 50):.4f} s (n={len(times)})")
    return lines


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def run_untraced(workload, seed: int, seconds: float) -> dict:
    from workloads import LEARNER, op_rng

    pool, setup_s, setups, same = _setup(workload, seed)
    steal0 = steal_seconds()
    loop = closed_loop(
        lambda i: workload.op(pool, i, LEARNER, op_rng(seed, i)), OP_CAP_S,
        seconds=seconds, pass_ops=workload.pass_ops(pool),
    )
    steal1 = steal_seconds()
    metrics = end_to_end(loop, setup_s)
    n = len(loop.records)
    counts = {
        "setup_s": f"median of {setups} set-ups",
        "op_s.p90": f"n={n}" if n >= 100 else f"needs >= 100 ops, have {n}",
        "fail_frac": f"{loop.failed} of {n}",
    }
    lines = [
        f"{workload.name} seed {seed}: {n} ops in {loop.wall_s:.2f} s, untraced, "
        f"{len(loop.ref_samples)} reference samples (median {statistics.median(loop.ref_samples):.4f} s)"
    ]
    for name, value in metrics.items():
        note = counts.get(name, f"n={n}")
        lines.append(f"  {name:<18} {_fmt(value):>12} {E2E_UNITS[name]:<4} ({note})")
    lines += _kind_lines(loop.records)
    return {
        "lines": lines,
        "correct": correct(same, loop),
        "attempted": n,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name], "unit": E2E_UNITS[name]} for name in REPORTED_E2E},
        "all_metrics": metrics,
        "outcomes": [r.outcome for r in loop.records if r.outcome != "ok"],
        "steal_s": None if steal0 is None else steal1 - steal0,
        "ops": n,
        "deterministic_setup": same,
        "ref_samples": loop.ref_samples,
    }


def run_traced(workload, seed: int, seconds: float, spans_path: str) -> dict:
    from workloads import LEARNER, CpuMeter, op_rng

    pool = workload.setup(seed, CpuMeter())
    setup_tracer = Tracer()
    with patched(setup_tracer):
        idx = setup_tracer.open(SETUP_SPAN)
        traced_pool = workload.setup(seed, CpuMeter())
        setup_tracer.close(idx)
    steal0 = steal_seconds()
    pass_ops = workload.pass_ops(pool)
    plain = closed_loop(
        lambda i: workload.op(pool, i, LEARNER, op_rng(seed, i)), OP_CAP_S,
        seconds=seconds / 2, pass_ops=pass_ops,
    )
    n = len(plain.records)
    tracer = Tracer()
    learner = tracer.wrap(LEARNER, "learners.exhaustive")

    def traced_op(i: int) -> Op:
        op = workload.op(pool, i, learner, op_rng(seed, i))

        def run():
            tracer.op = i
            tracer.reset_stack()
            root = tracer.open(OP_SPAN)
            try:
                return op.run()
            finally:
                tracer.close(root)
        return Op(op.kind, run, op.check)

    with patched(tracer):
        traced = closed_loop(traced_op, OP_CAP_S, count=n, pass_ops=pass_ops)
    steal1 = steal_seconds()
    tracer.write(spans_path)

    kinds = [r.kind for r in traced.records]
    values = layer_metrics(tracer, kinds, setup_tracer)
    plain_op = sum(r.seconds for r in plain.records) / n
    traced_op_s = sum(r.seconds for r in traced.records) / n
    values["trace.op_s"] = traced_op_s
    values["trace.untraced_op_s"] = plain_op
    values["trace.overhead_s"] = traced_op_s - plain_op
    units = dict(LAYER_METRICS)
    lines = [f"{workload.name} seed {seed}: {n} ops untraced, then the same {n} traced"]
    for name, unit in LAYER_METRICS:
        lines.append(f"  {name:<42} {_fmt(values[name]):>12} {unit}")
    lines.append(
        f"  tracing overhead {traced_op_s - plain_op:+.4f} s/op "
        f"({100.0 * (traced_op_s / plain_op - 1.0):+.1f}% of {plain_op:.4f} s untraced)"
    )
    spans_by_name = breakdown(tracer)
    lines.append(f"  {'span':<40} {'calls/op':>10} {'share %':>9} {'self %':>9}")
    for name, (calls, share, own) in sorted(spans_by_name.items(), key=lambda kv: -kv[1][2]):
        lines.append(f"  {name:<40} {calls:>10.6g} {share:>9.3f} {own:>9.3f}")
    records = plain.records + traced.records
    return {
        "lines": lines,
        "correct": correct(traced_pool == pool, plain, traced),
        "attempted": len(records),
        "failed": plain.failed + traced.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "outcomes": [r.outcome for r in records if r.outcome != "ok"],
        "steal_s": None if steal0 is None else steal1 - steal0,
        "ops": n,
        "spans": os.path.relpath(spans_path, ROOT),
        "breakdown": {
            name: {"calls_per_op": c, "share_pct": sh, "self_share_pct": own}
            for name, (c, sh, own) in spans_by_name.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    problem = _import_package()
    if problem is not None:
        print(f"bench: {problem}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    if args.trace:
        result = run_traced(workload, args.seed, args.seconds, stem + ".spans.jsonl")
    else:
        result = run_untraced(workload, args.seed, args.seconds)
    info = provenance(ROOT, workload.name, args.seed)
    info.update(ops_per_run=result["ops"], steal_s=result["steal_s"], seconds=args.seconds)

    for line in result.pop("lines"):
        print(line)
    print("provenance " + json.dumps(info))
    with open(stem + ".json", "w") as fh:
        json.dump({"provenance": info, **result}, fh, indent=1)
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
