"""Closed-loop load generator, per-op cap, end-to-end metrics and provenance.

One client on one thread: the next op starts only when the previous one
has finished.  Every op is timed on the wall clock and in CPU time,
checked, and recorded whatever its outcome; an op that raises,
overruns the per-op cap or returns a wrong answer counts as failed and is
never dropped.

On a shared host the CPU time of the same op swings by half or more
within seconds, as other tenants load the physical core and its caches.
A fixed pure-Python reference loop, run between stretches of measured
work and in single rounds inside each op, slows down with it.
``Reference`` scales the CPU time of each stretch by ``REF_NOMINAL_S``
over the reference speed measured around and inside it: seconds at the
speed the reference loop has on an idle core, a figure that the host's
load moves far less than the raw CPU time.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import signal
import sys
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable

OK, WRONG, ERROR, TIMEOUT = "ok", "wrong", "error", "timeout"
P90_MIN_OPS = 100
# CPU seconds of one reference_work() on an idle core of an Intel Xeon
# 2-vCPU VM; only a fixed scale, the ratio to the samples is what counts.
REF_NOMINAL_S = 0.03
# Rounds in one reference_work(); inside an op the loop runs one round.
REF_ROUNDS = 8
# CPU seconds of measured work between two reference samples.
REF_EVERY_S = 0.25
# Process CPU seconds of an op between two reference rounds inside it.
REF_TICK_S = 0.05
_REF_FRACTIONS = [Fraction((7919 * i) % 65521 + 1, 65536) for i in range(4096)]


def reference_work(rounds: int = REF_ROUNDS) -> Fraction:
    """A fixed pure-Python loop of the kinds of work the package does:
    integer arithmetic, bit counts, dict stores, small lists, and exact
    rational sums over a table larger than the first-level caches."""
    corr = Fraction(0)
    for _ in range(rounds):
        acc, mask, total, table = 0x9E3779B97F4A7C15, (1 << 64) - 1, 0, {}
        for i in range(5000):
            acc = (acc * 6364136223846793005 + 1442695040888963407) & mask
            total += (acc >> 7 & 0xFFFFFF).bit_count() & 1
            table[acc & 1023] = i
            if i & 63 == 0:
                total += sum([acc >> s & 1 for s in range(32)])
        corr += total + len(table)
        for i in range(500):
            p = _REF_FRACTIONS[(i * 2654435761) & 4095]
            corr += -p if (i & 0x5A5A5).bit_count() & 1 else p
    return corr


def reference_sample() -> float:
    """CPU seconds one run of the reference loop takes now."""
    start = time.thread_time()
    reference_work()
    return time.thread_time() - start


class Reference:
    """Scales stretches of measured CPU time to the reference speed.

    ``add`` takes the CPU seconds of one piece of work, and the CPU
    seconds and count of reference rounds run inside it; once pieces
    worth ``every_s`` have been added, and at ``close``, the whole
    reference loop runs again.  Every piece since the previous sample is
    scaled by ``REF_NOMINAL_S`` over the reference speed of the stretch:
    the CPU time per loop of the two samples around it and of the rounds
    run inside its pieces, taken together.  ``scaled[i]`` is the scaled
    value of the i-th piece added.

    Inside an op, ``arm`` makes the process's CPU-time interval timer
    run one reference round every ``REF_TICK_S``, so that a long op is
    scaled by the speed the host had while it ran, not only before and
    after; ``disarm`` stops it and returns the CPU and wall seconds and
    the count of those rounds, which the op's own times leave out.
    """

    def __init__(self, every_s: float = REF_EVERY_S, sample: Callable[[], float] = reference_sample):
        self.every_s = every_s
        self.sample = sample
        self.samples = [sample()]
        self.scaled: list[float] = []
        self._open: list[float] = []
        self._rounds_cpu = 0.0
        self._rounds = 0
        self._ticks: list[tuple[float, float]] = []

    def add(self, cpu_s: float, rounds_cpu_s: float = 0.0, rounds: int = 0) -> None:
        self._open.append(cpu_s)
        self._rounds_cpu += rounds_cpu_s
        self._rounds += rounds
        if sum(self._open) >= self.every_s:
            self.close()

    def close(self) -> None:
        if not self._open:
            return
        self.samples.append(self.sample())
        per_loop = (self.samples[-2] + self.samples[-1] + self._rounds_cpu) / (
            2 + self._rounds / REF_ROUNDS
        )
        self.scaled += [c * REF_NOMINAL_S / per_loop for c in self._open]
        self._open, self._rounds_cpu, self._rounds = [], 0.0, 0

    def _tick(self, signum, frame) -> None:
        cpu0, start = time.thread_time(), time.perf_counter()
        reference_work(1)
        self._ticks.append((time.thread_time() - cpu0, time.perf_counter() - start))

    def arm(self) -> None:
        self._ticks = []
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, REF_TICK_S, REF_TICK_S)

    def disarm(self) -> tuple[float, float, int]:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        ticks = self._ticks
        return sum(c for c, _ in ticks), sum(w for _, w in ticks), len(ticks)


@dataclass(frozen=True)
class Op:
    """One unit of work: ``run`` is timed, ``check`` judges its answer."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass(frozen=True)
class Record:
    kind: str
    key: int  # which op of the pool's pass this was
    seconds: float
    cpu_s: float
    outcome: str
    norm_s: float = math.nan  # cpu_s at reference speed


@dataclass(frozen=True)
class Loop:
    records: list[Record]
    wall_s: float
    cpu_s: float
    ref_samples: list[float]

    @property
    def failed(self) -> int:
        return sum(r.outcome != OK for r in self.records)


class OpTimeout(Exception):
    """Raised inside an op that overran the per-op wall-clock cap."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def run_op(op: Op, cap_s: float, key: int, ref: Reference) -> Record:
    """Run, time and check one op under a wall-clock cap.

    The cap is a SIGALRM timer, so it interrupts pure-Python loops in the
    main thread between bytecodes.  Reference rounds of ``ref`` run
    inside the op and are left out of its times.  CPU time is the
    thread's: while the CPU-time interval timer is armed, Linux reads the
    process's CPU clock only to the scheduler tick.
    """
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    inside = (0.0, 0.0, 0)
    cpu0 = time.thread_time()
    start = time.perf_counter()

    def elapsed() -> tuple[float, float]:
        return (time.perf_counter() - start - inside[1], time.thread_time() - cpu0 - inside[0])

    try:
        signal.setitimer(signal.ITIMER_REAL, cap_s)
        ref.arm()
        try:
            answer = op.run()
        finally:
            inside = ref.disarm()
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds, cpu = elapsed()
        outcome = OK if op.check(answer) else WRONG
    except OpTimeout:
        (seconds, cpu), outcome = elapsed(), TIMEOUT
    except Exception:  # a failing op is a result to record, not a crash
        (seconds, cpu), outcome = elapsed(), ERROR
    finally:
        signal.signal(signal.SIGALRM, previous)
    ref.add(cpu, inside[0], inside[2])
    return Record(op.kind, key, seconds, cpu, outcome)


def closed_loop(
    op_at: Callable[[int], Op],
    cap_s: float,
    *,
    seconds: float | None = None,
    count: int | None = None,
    pass_ops: int = 1,
) -> Loop:
    """Ops 0, 1, 2, ... back to back, for ``seconds`` or for ``count`` ops.

    Op i is op ``i % pass_ops`` of a pass over the pool.  A timed loop
    always completes a whole first pass, so that every op of the pool is
    measured, and lets the op in flight at the deadline finish.  Each
    record's ``norm_s`` is its CPU time at reference speed.
    """
    records = []
    ref = Reference()
    start = time.perf_counter()
    i = 0
    while True:
        records.append(run_op(op_at(i), cap_s, i % pass_ops, ref))
        i += 1
        if count is not None and i >= count:
            break
        if seconds is not None and i >= pass_ops and time.perf_counter() - start >= seconds:
            break
    ref.close()
    wall = time.perf_counter() - start
    records = [replace(r, norm_s=norm) for r, norm in zip(records, ref.scaled)]
    return Loop(records, wall, sum(r.cpu_s for r in records), ref.samples)


def nearest_rank(values: list[float], pct: float) -> float:
    """The smallest value with at least ``pct`` percent of values at or
    below it (nearest-rank percentile)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(pct / 100.0 * len(ordered))) - 1]


def p90_or_none(values: list[float]) -> float | None:
    """The 90th percentile, or None below 100 samples, where fewer than
    ten samples would lie beyond it."""
    if len(values) < P90_MIN_OPS:
        return None
    return nearest_rank(values, 90)


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def per_pool_op(records: list[Record]) -> float:
    """Geometric mean over the ops of a pass of each op's mean ``norm_s``.

    Every op of the pool weighs the same however often a run repeats it,
    and, the mean being geometric, however long it takes: the few longest
    ops of a pool, each measured once or twice, do not set the figure.
    """
    by_key: dict[int, list[float]] = {}
    for r in records:
        by_key.setdefault(r.key, []).append(r.norm_s)
    return math.exp(sum(math.log(sum(v) / len(v)) for v in by_key.values()) / len(by_key))


def end_to_end(loop: Loop, setup_s: float) -> dict[str, float | None]:
    """The end-to-end metrics of one untraced run, ``cpu_s_per_op.norm``
    (CPU time per op at reference speed) among them."""
    times = [r.seconds for r in loop.records]
    n = len(times)
    return {
        "setup_s": setup_s,
        "ops_per_s": n / loop.wall_s,
        "op_s.p50": nearest_rank(times, 50),
        "op_s.p90": p90_or_none(times),
        "cpu_s_per_op": loop.cpu_s / n,
        "cpu_s_per_op.norm": per_pool_op(loop.records),
        "fail_frac": loop.failed / n,
        "peak_rss_mb": peak_rss_mb(),
    }


E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.p90": "s",
    "cpu_s_per_op": "s",
    "cpu_s_per_op.norm": "s",
    "fail_frac": "1",
    "peak_rss_mb": "MB",
}


# ---------- provenance ----------


def git_revision(root: str) -> str:
    """HEAD of the checkout read from .git, or 'unknown' outside git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split(" ", 1)[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def steal_seconds() -> float | None:
    """Machine-wide CPU time stolen by the hypervisor so far (Linux)."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def provenance(root: str, workload: str, seed: int) -> dict:
    return {
        "git_revision": git_revision(root),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workload": workload,
        "seed": seed,
    }
