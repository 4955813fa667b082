"""Helpers that only the tests use: the reduced form of a tree and a
CPU-time limit."""

import signal
from contextlib import contextmanager

from ncplift.dtree import Leaf, Node


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
