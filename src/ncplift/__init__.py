"""Sparse nearest-codeword solving through proper decision-tree learning.

The pipeline: a syndrome instance becomes a labeled-example source (rows
of H labeled by t), the labels extend linearly over the row span, each
coordinate is lifted to a parity block, a decision-tree learner is run
on the lifted examples, and candidate parities read off the hypothesis
fold back to sparse solution vectors that are verified exactly.  Exact
brute-force oracles for every step live alongside and back the
``selftest`` suites.
"""

from . import dtree, f2, gadget, instance, learners, reduction, selftest, span
from .dtree import *  # noqa: F403
from .f2 import *  # noqa: F403
from .gadget import *  # noqa: F403
from .instance import *  # noqa: F403
from .learners import *  # noqa: F403
from .reduction import *  # noqa: F403
from .selftest import *  # noqa: F403
from .span import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (dtree, f2, gadget, instance, learners, reduction, selftest, span)
    for name in module.__all__
]
