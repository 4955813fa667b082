"""Golden outputs: one digest per named case of the pipelines' results.

A case runs ``search``, ``decide``, ``brute_force_nearest``, or
``extract_parity`` and ``span_lifted_tree_error`` on generic trees, on
fixed instances and seeds.  Its digest is the sha256 of every field of every
report it gets, in order, followed for a learner case by the next
``rng.random()`` of the generator the pipeline drew from, so a change to
an answer, a report field or the RNG stream changes the digest.  A
hypothesis is written as its distinct nodes, each once, so a DAG of
depth 16 costs its few dozen nodes, not its 2**16 paths.

``tests/test_golden.py`` checks every case against ``golden.json``.  To
regenerate that file after a change that is meant to change outputs, run
from the root of the checkout

    python3 tests/golden.py

and name each case whose digest changed, and why, with the change.
``python3 tests/golden.py --check`` writes nothing: it prints the name
of each case whose digest differs from ``golden.json`` and exits 1 if
there is one, so an interpreter without pytest can run the check.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction
from random import Random

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from ncplift.dtree import Leaf, Node  # noqa: E402
from ncplift.f2 import BitVector  # noqa: E402
from ncplift.instance import brute_force_nearest, random_planted  # noqa: E402
from ncplift.gadget import span_lifted_tree_error  # noqa: E402
from ncplift.learners import exhaustive_parity_learner  # noqa: E402
from ncplift.reduction import (  # noqa: E402
    ReductionConfig,
    build_learning_instance,
    decide,
    extract_parity,
    search,
)
from ncplift.selftest import _far_instance  # noqa: E402

GOLDEN_PATH = os.path.join(HERE, "golden.json")


def tree_nodes(tree) -> list:
    """The distinct nodes of a tree, children before parents, each as
    ``["l", label]`` or ``["q", coord, low index, high index]``."""
    index: dict = {}
    nodes: list = []

    def visit(t) -> int:
        if t not in index:
            if isinstance(t, Leaf):
                entry = ["l", t.label]
            else:
                entry = ["q", t.coord, visit(t.low), visit(t.high)]
            index[t] = len(nodes)
            nodes.append(entry)
        return index[t]

    visit(tree)
    return nodes


def encode(value):
    """A JSON form of one report field."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Fraction):
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, BitVector):
        return value.to01()
    return tree_nodes(value)


def report_record(report) -> dict:
    return {f.name: encode(getattr(report, f.name)) for f in dataclasses.fields(report)}


def _learned(pipeline, instances, ell: int) -> list:
    """Each (instance, seed) through the pipeline with the exhaustive
    learner, its report and the generator's next draw."""
    cfg = ReductionConfig(ell=ell)
    out = []
    for inst, seed in instances:
        rng = Random(seed)
        report = pipeline(inst, cfg, exhaustive_parity_learner, rng)
        out.append([report_record(report), rng.random().hex()])
    return out


def _planted(n: int, m: int, k: int, seeds, alpha: Fraction = Fraction(1)) -> list:
    return [(replace(random_planted(n, m, k, seed)[0], alpha=alpha), seed) for seed in seeds]


def _far(count: int) -> list:
    gen = Random(909)
    return [(_far_instance(gen, 14, 12, 2), 9_500_000 + i) for i in range(count)]


def _nearest(n: int, m: int, k: int, seeds, caps) -> list:
    out = []
    for seed in seeds:
        inst = random_planted(n, m, k, seed)[0]
        for cap in caps:
            x = brute_force_nearest(inst, cap)
            out.append(None if x is None else x.to01())
    return out


def _generic_tree(rng: Random, coords: list[int], depth: int):
    """A random tree over a few lifted coordinates, so that its paths
    query coordinates again and cover blocks partly and wholly, with a
    subtree shared now and then."""
    if depth == 0 or rng.random() < 0.1:
        return Leaf(rng.getrandbits(1))
    low = _generic_tree(rng, coords, depth - 1)
    high = low if rng.random() < 0.2 else _generic_tree(rng, coords, depth - 1)
    return Node(rng.choice(coords), low, high)


def _generic_trees(seeds) -> list:
    """Extraction's candidates and the exact tree error of a generic
    tree over the first three blocks of a planted (6, 4, 2) instance."""
    out = []
    for seed in seeds:
        oracle = build_learning_instance(random_planted(6, 4, 2, seed)[0], ReductionConfig())
        tree = _generic_tree(Random(seed), list(range(1, 7)), 7)
        found = [list(s.indices) for s in extract_parity(tree, oracle)]
        error = span_lifted_tree_error(tree, oracle.base, oracle.params)
        out.append([tree_nodes(tree), found, encode(error)])
    return out


# Planted search on the shapes of the search-extract and search-scan
# workloads and of decide-gate; decide at alpha 3, on selftest's planted
# seeds and certified-far instances, at three block widths (ell 8 is
# depth 16); the instances of CI's deep, wide and span steps
# at the CLI's default seed 0; search and decide on an empty H, whose
# span of dimension 0 draws every example from getrandbits(0); brute
# force on the solve-exact shape and on shapes small enough for the
# coset walk, each at caps that hit and that miss; and extraction and
# the tree error on generic trees.
CASES = {
    "search-24-16-2": lambda: _learned(search, _planted(24, 16, 2, range(1, 6)), 2),
    "search-18-10-3": lambda: _learned(search, _planted(18, 10, 3, range(1, 6)), 2),
    "search-14-12-2": lambda: _learned(search, _planted(14, 12, 2, range(1, 6)), 2),
    **{
        f"decide-planted-ell{ell}": lambda ell=ell: _learned(
            decide, _planted(14, 12, 2, range(8000, 8004), Fraction(3)), ell
        )
        for ell in (2, 3, 8)
    },
    **{f"decide-far-ell{ell}": lambda ell=ell: _learned(decide, _far(4), ell) for ell in (2, 3, 8)},
    "ci-deep-k7": lambda: _learned(search, [(random_planted(48, 36, 7, 1)[0], 0)], 2),
    "ci-deep-k8": lambda: _learned(search, [(random_planted(48, 36, 8, 1)[0], 0)], 2),
    "ci-deep-k8-decide": lambda: _learned(
        decide, [(replace(random_planted(48, 36, 8, 1)[0], alpha=Fraction(3)), 0)], 2
    ),
    "ci-wide": lambda: _learned(search, [(random_planted(48, 12, 3, 1)[0], 0)], 2),
    "ci-span": lambda: _learned(search, [(random_planted(200, 150, 2, 1)[0], 0)], 2),
    "zero-width-14-0-2": lambda: _learned(search, _planted(14, 0, 2, range(1, 4)), 2)
    + _learned(decide, _planted(14, 0, 2, range(1, 4), Fraction(3)), 2),
    "nearest-64-48-5": lambda: _nearest(64, 48, 5, range(1, 4), (5, 4)),
    "nearest-20-16-3": lambda: _nearest(20, 16, 3, range(1, 6), (3, 2)),
    "nearest-30-18-4": lambda: _nearest(30, 18, 4, range(1, 4), (4, 3)),
    "generic-trees": lambda: _generic_trees(range(1, 21)),
}


def digest(name: str) -> str:
    payload = json.dumps(CASES[name](), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def check() -> int:
    """Print each case whose digest differs from ``golden.json``, or
    that is missing from ``CASES`` or from the file; 1 if there is one,
    else 0."""
    with open(GOLDEN_PATH) as f:
        golden = json.load(f)
    mismatched = [
        name for name in sorted(set(CASES) | set(golden))
        if name not in CASES or golden.get(name) != digest(name)
    ]
    for name in mismatched:
        print(f"mismatch: {name}")
    print(f"{len(set(CASES) - set(mismatched))} of {len(CASES)} cases match {GOLDEN_PATH}")
    return 1 if mismatched else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="Write or check the golden digests.")
    parser.add_argument("--check", action="store_true", help="compare with golden.json, write nothing")
    if parser.parse_args().check:
        return check()
    golden = {name: digest(name) for name in CASES}
    with open(GOLDEN_PATH, "w") as f:
        json.dump(golden, f, indent=2)
        f.write("\n")
    print(f"wrote {len(golden)} digests to {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
