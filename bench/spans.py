"""Spans around calls into ncplift's modules, recorded from outside the package.

A traced run replaces, for its own length only, the module attributes the
pipelines call through (``ncplift.reduction.extract_parity``,
``ncplift.gadget.lift_sample`` and so on) with wrappers that record a span
per call, then puts the originals back.  Python resolves a module-level
name at call time, so wrapping the name in the calling module's namespace
intercepts every call the pipeline makes without touching ``src/``.

A span records its name, start, end, parent span and the op it belongs
to.  Calls to hot leaf functions (one per drawn example, or one per rank
computation) are folded into one record per (parent span, name) that keeps
the call count and the summed duration, so a traced op stores tens of
records rather than thousands.  Counters tally the items of a counted
iterator, attributed to the innermost open span.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the parent span, -1 at the root
    op: int  # op index, -1 for set-up
    calls: int = 1  # > 1 only for folded leaf records
    busy: float = 0.0  # summed duration; end - start for an ordinary span


class Tracer:
    """In-memory span store, written out only when the run ends."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[tuple[int, str], int] = defaultdict(int)
        self.stack: list[int] = [-1]
        self.op = -1
        self._folded: dict[tuple[int, str], int] = {}

    def open(self, name: str) -> int:
        idx = len(self.spans)
        now = self.clock()
        self.spans.append(Span(name, now, now, self.stack[-1], self.op))
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = self.clock()
        span.busy = span.end - span.start
        # An interrupted op may leave inner spans open; drop them with it.
        del self.stack[self.stack.index(idx):]

    def fold(self, name: str, start: float, end: float) -> None:
        key = (self.stack[-1], name)
        idx = self._folded.get(key)
        if idx is None:
            self._folded[key] = len(self.spans)
            self.spans.append(Span(name, start, end, key[0], self.op, 1, end - start))
            return
        span = self.spans[idx]
        span.calls += 1
        span.busy += end - start
        span.end = end

    def reset_stack(self) -> None:
        del self.stack[1:]

    def wrap(self, fn, name: str):
        """``fn`` recorded as one span per call."""
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def wrap_sized(self, fn, name: str):
        """Like ``wrap``, also counting the length of each result as
        ``<name>.items``."""
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
                self.counts[idx, name + ".items"] += len(result)
                return result
            finally:
                self.close(idx)
        return traced

    def wrap_leaf(self, fn, name: str):
        """``fn`` folded into one record per parent span."""
        clock = self.clock
        def traced(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.fold(name, start, clock())
        return traced

    def wrap_counted(self, fn, name: str):
        """Iterator factory whose items are counted against the open span."""
        def counted(*args, **kwargs):
            key = (self.stack[-1], name)
            n = 0
            try:
                for item in fn(*args, **kwargs):
                    n += 1
                    yield item
            finally:
                self.counts[key] += n
        return counted

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for idx, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "op": s.op, "calls": s.calls, "busy_s": s.busy,
                }) + "\n")
            for (span, name), n in sorted(self.counts.items()):
                fh.write(json.dumps({"counter": name, "span": span, "count": n}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    Children run inside their parent on one thread and never overlap each
    other, so the covered part is the sum of their durations.
    """
    out = [s.busy for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.busy
    return out


# (module under ncplift, attribute, kind, layer name).  Wrapping the name
# where it is called, not where it is defined, keeps recursive calls
# inside a module out of the trace.
PATCHES = (
    ("reduction", "search", "span", "reduction.search"),
    ("reduction", "decide", "span", "reduction.decide"),
    ("reduction", "build_learning_instance", "span", "reduction.build_learning_instance"),
    ("reduction", "normalize_syndrome", "span", "instance.normalize_syndrome"),
    ("reduction", "syndrome_to_labeled_set", "span", "instance.syndrome_to_labeled_set"),
    ("reduction", "make_span_oracle", "span", "span.make_span_oracle"),
    ("reduction", "extract_parity", "sized", "reduction.extract_parity"),
    ("reduction", "prune", "span", "dtree.prune"),
    ("reduction", "path_support_sets", "sized", "dtree.path_support_sets"),
    ("reduction", "exact_lifted_agreement", "span", "gadget.exact_lifted_agreement"),
    ("reduction", "estimate_distance", "span", "dtree.estimate_distance"),
    ("instance", "brute_force_nearest", "span", "instance.brute_force_nearest"),
    ("instance", "rank", "leaf", "f2.rank"),
    ("span", "rank", "leaf", "f2.rank"),
    ("span", "sample_span", "leaf", "span.sample"),
    ("gadget", "lift_sample", "leaf", "gadget.lift_sample"),
    ("instance", "combinations", "count", "instance.combinations"),
    ("learners", "combinations", "count", "learners.combinations"),
)


@contextmanager
def patched(tracer: Tracer):
    """Wrap the listed module attributes for the length of the block."""
    makers = {
        "span": tracer.wrap,
        "sized": tracer.wrap_sized,
        "leaf": tracer.wrap_leaf,
        "count": tracer.wrap_counted,
    }
    saved = []
    try:
        for module, attr, kind, name in PATCHES:
            mod = importlib.import_module(f"ncplift.{module}")
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, makers[kind](original, name))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


# Per-layer metrics of a traced run, in the order they are reported.  A
# ``share`` is the layer's time as a percentage of traced op wall time; a
# count is per op.  Shares rather than seconds keep a layer that a
# workload never enters at an honest 0 without reporting a time.
LAYER_METRICS = (
    ("reduction.extract_parity.share", "%"),
    ("reduction.extract_parity.candidates", "count/op"),
    ("gadget.exact_lifted_agreement.share", "%"),
    ("gadget.exact_lifted_agreement.calls", "count/op"),
    ("learners.exhaustive.share", "%"),
    ("learners.exhaustive.self_share", "%"),
    ("learners.scan.candidates", "count/op"),
    ("learners.scan.candidates.planted", "count/op"),
    ("learners.scan.candidates.far", "count/op"),
    ("gadget.lift_sample.share", "%"),
    ("gadget.lift_sample.calls", "count/op"),
    ("span.sample.share", "%"),
    ("span.sample.calls", "count/op"),
    ("dtree.estimate_distance.share", "%"),
    ("dtree.estimate_distance.samples", "count/op"),
    ("dtree.prune.share", "%"),
    ("dtree.path_support_sets.share", "%"),
    ("dtree.path_support_sets.sets", "count/op"),
    ("instance.brute_force_nearest.share", "%"),
    ("instance.brute_force_nearest.supports", "count/op"),
    ("instance.normalize_syndrome.calls", "count/op"),
    ("instance.syndrome_to_labeled_set.calls", "count/op"),
    ("f2.rank.calls", "count/op"),
    ("f2.rank.share", "%"),
    ("reduction.build_learning_instance.share", "%"),
    ("reduction.search.self_share", "%"),
    ("reduction.decide.self_share", "%"),
    ("setup.instance.brute_force_nearest.share", "%"),
    ("trace.op_s", "s"),
    ("trace.untraced_op_s", "s"),
    ("trace.overhead_s", "s"),
)

OP_SPAN = "op"
SETUP_SPAN = "setup"


def breakdown(ops: Tracer) -> dict[str, tuple[float, float, float]]:
    """Per span name: calls per op, and inclusive and self time as
    percentages of traced op wall time.  ``ops`` holds one ``op`` root
    span per traced op."""
    rows: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for s, own in zip(ops.spans, self_times(ops.spans)):
        row = rows[s.name]
        row[0] += s.calls
        row[1] += s.busy
        row[2] += own
    nops, total, _ = rows[OP_SPAN]
    return {
        name: (calls / nops, 100.0 * busy / total, 100.0 * own / total)
        for name, (calls, busy, own) in rows.items()
    }


def layer_metrics(ops: Tracer, kinds: list[str], setup: Tracer) -> dict[str, float]:
    """Shares and per-op counts from the spans of a traced run.

    ``kinds[i]`` names the kind of op i, and ``setup`` holds one traced
    set-up under a ``setup`` root span.  The ``trace.*`` timings are
    filled in by the caller, which also ran the same ops untraced.
    """
    spans = ops.spans
    rows = defaultdict(lambda: (0.0, 0.0, 0.0), breakdown(ops))
    nops = len(kinds)
    under: dict[tuple[str, str], int] = defaultdict(int)  # (parent name, name) -> calls
    for s in spans:
        if s.parent >= 0:
            under[spans[s.parent].name, s.name] += s.calls
    counts: dict[str, int] = defaultdict(int)
    for (idx, name), n in ops.counts.items():
        counts[name] += n
        if name == "learners.combinations":
            counts[f"{name}.{kinds[spans[idx].op]}"] += n

    def calls(name: str) -> float:
        return rows[name][0]

    def share(name: str) -> float:
        return rows[name][1]

    def self_share(name: str) -> float:
        return rows[name][2]

    def per_kind(kind: str) -> float:
        n = kinds.count(kind)
        return counts[f"learners.combinations.{kind}"] / n if n else 0.0

    setup_total = sum(s.busy for s in setup.spans if s.name == SETUP_SPAN)
    setup_bf = sum(s.busy for s in setup.spans if s.name == "instance.brute_force_nearest")
    return {
        "reduction.extract_parity.share": share("reduction.extract_parity"),
        "reduction.extract_parity.candidates": counts["reduction.extract_parity.items"] / nops,
        "gadget.exact_lifted_agreement.share": share("gadget.exact_lifted_agreement"),
        "gadget.exact_lifted_agreement.calls": calls("gadget.exact_lifted_agreement"),
        "learners.exhaustive.share": share("learners.exhaustive"),
        "learners.exhaustive.self_share": self_share("learners.exhaustive"),
        "learners.scan.candidates": counts["learners.combinations"] / nops,
        "learners.scan.candidates.planted": per_kind("planted"),
        "learners.scan.candidates.far": per_kind("far"),
        "gadget.lift_sample.share": share("gadget.lift_sample"),
        "gadget.lift_sample.calls": calls("gadget.lift_sample"),
        "span.sample.share": share("span.sample"),
        "span.sample.calls": calls("span.sample"),
        "dtree.estimate_distance.share": share("dtree.estimate_distance"),
        "dtree.estimate_distance.samples":
            under["dtree.estimate_distance", "gadget.lift_sample"] / nops,
        "dtree.prune.share": share("dtree.prune"),
        "dtree.path_support_sets.share": share("dtree.path_support_sets"),
        "dtree.path_support_sets.sets": counts["dtree.path_support_sets.items"] / nops,
        "instance.brute_force_nearest.share": share("instance.brute_force_nearest"),
        # The empty support is tested before any combination is drawn.
        "instance.brute_force_nearest.supports":
            counts["instance.combinations"] / nops + calls("instance.brute_force_nearest"),
        "instance.normalize_syndrome.calls": calls("instance.normalize_syndrome"),
        "instance.syndrome_to_labeled_set.calls": calls("instance.syndrome_to_labeled_set"),
        "f2.rank.calls": calls("f2.rank"),
        "f2.rank.share": share("f2.rank"),
        "reduction.build_learning_instance.share": share("reduction.build_learning_instance"),
        "reduction.search.self_share": self_share("reduction.search"),
        "reduction.decide.self_share": self_share("reduction.decide"),
        "setup.instance.brute_force_nearest.share":
            100.0 * setup_bf / setup_total if setup_total else 0.0,
    }
