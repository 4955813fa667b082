"""Sparse nearest-codeword solving through proper decision-tree learning.

The pipeline: a syndrome instance becomes a labeled-example source (rows
of H labeled by t), the labels extend linearly over the row span, each
coordinate is lifted to a parity block, a decision-tree learner is run
on the lifted examples, and candidate parities read off the hypothesis
fold back to sparse solution vectors that are verified exactly.  Exact
brute-force oracles for every step live alongside and back the
``selftest`` suites.
"""

from importlib import import_module

from . import dtree, f2, gadget, instance, learners, reduction, span
from .dtree import *  # noqa: F403
from .f2 import *  # noqa: F403
from .gadget import *  # noqa: F403
from .instance import *  # noqa: F403
from .learners import *  # noqa: F403
from .reduction import *  # noqa: F403
from .span import *  # noqa: F403

__version__ = "0.1.0"


def __getattr__(name: str):
    """``selftest``, its public names and ``__all__``, resolved on first
    use (PEP 562): the suite is the largest module, and the pipelines
    need none of it.  Any other name is missing here, so ``from ncplift
    import cli`` imports the submodule without loading the suite."""
    if name not in ("__all__", "selftest", "CriterionResult", "run_all", "CRITERIA", "FAULT_IDS"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    selftest = import_module(".selftest", __name__)
    namespace = globals()
    namespace.update((n, getattr(selftest, n)) for n in selftest.__all__)
    namespace["__all__"] = ["__version__"] + [
        n
        for module in (dtree, f2, gadget, instance, learners, reduction, selftest, span)
        for n in module.__all__
    ]
    return namespace[name]
