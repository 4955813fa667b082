"""Sparse nearest-codeword solving through proper decision-tree learning.

The pipeline: a syndrome instance becomes a labeled-example source (rows
of H labeled by t), the labels extend linearly over the row span, each
coordinate is lifted to a parity block, a decision-tree learner is run
on the lifted examples, and candidate parities read off the hypothesis
fold back to sparse solution vectors that are verified exactly.  Exact
brute-force oracles for every step live alongside and back the
``selftest`` suites.  Each step is its own module, with its own
``__all__``; the package namespace holds none of their names.
"""

__version__ = "0.1.0"
