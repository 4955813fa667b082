import json

import pytest

from golden import CASES, GOLDEN_PATH, digest

with open(GOLDEN_PATH) as f:
    GOLDEN = json.load(f)


def test_every_case_has_a_golden_digest():
    assert set(GOLDEN) == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_outputs_match_the_golden_digest(name):
    # A deliberate change of outputs regenerates golden.json with
    # ``python3 tests/golden.py`` and names the changed cases.
    assert digest(name) == GOLDEN[name]
