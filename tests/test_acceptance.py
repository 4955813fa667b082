"""Top-level acceptance battery: the nine lemma suites at full scale.

Each test prints one PASS/FAIL line for its criterion and asserts the
recorded outcome, so `pytest -v tests/test_acceptance.py` doubles as a
readable scoreboard.  The suites themselves live in ncplift.selftest
and are shared with the `ncplift selftest` subcommand.
"""

from collections import Counter

import pytest

from ncplift.gadget import GadgetParams
from ncplift.selftest import (
    CRITERIA,
    _all_restrictions,
    _pattern_classes,
    _pattern_of,
    _sweep_patterns,
    run_all,
)


@pytest.fixture(scope="session")
def full_results():
    results = run_all(level="full")
    return {r.name: r for r in results}


def _report(full_results, name):
    r = full_results[name]
    status = "PASS" if r.passed else "FAIL"
    print(f"{name}: {status} ({r.seconds:.2f}s) {r.detail}")
    assert r.passed, f"{name}: {r.detail}"


def test_criteria_roster(full_results):
    assert [name for name, _ in CRITERIA] == list(full_results)
    assert len(full_results) == 9


def test_01_span_dichotomy(full_results):
    _report(full_results, "span-dichotomy")


def test_02_restriction_probability_bound(full_results):
    _report(full_results, "restriction-probability-bound")


@pytest.mark.parametrize("ell, n", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_02_pattern_classes_count_every_restriction(ell, n):
    # Criterion 2 checks each class once; the counts must be those of
    # the concrete restrictions, read one at a time.
    params = GadgetParams(ell, n)
    by_hand = Counter(_pattern_of(rho, params) for rho in _all_restrictions(params))
    assert _pattern_classes(ell, n) == by_hand
    assert sum(by_hand.values()) == 3 ** (ell * n)


def test_02_sweep_reports_a_violating_entry():
    # ell = 2, n = 2, denominator 1: full block 1 of parity 1 with block
    # 2 unrestricted is bounded by 1 << 0, and with one bit of block 2
    # by 1 << 1.  A required parity outside the full blocks is no
    # pattern.
    classes = _pattern_classes(2, 2)
    powed = [[0] * 4 for _ in range(4)]
    powed[0b00][0b01] = 100
    assert _sweep_patterns(classes, powed, 1) is None
    powed[0b01][0b01] = 2
    assert _sweep_patterns(classes, powed, 1) == "pattern partial_bits=0 full=1 req=1"


def test_03_block_correlation_dichotomy(full_results):
    _report(full_results, "block-correlation-dichotomy")


def test_04_tree_fourier_support(full_results):
    _report(full_results, "tree-fourier-support")


def test_05_prune_error_bound(full_results):
    _report(full_results, "prune-error-bound")


def test_06_parity_extraction_advantage(full_results):
    _report(full_results, "parity-extraction-advantage")


def test_07_search_end_to_end(full_results):
    _report(full_results, "search-end-to-end")


def test_08_decide_end_to_end(full_results):
    _report(full_results, "decide-end-to-end")


def test_09_certificate_soundness(full_results):
    _report(full_results, "certificate-soundness")
