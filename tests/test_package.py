"""The package namespace: every module's public names, once each."""

import os
import subprocess
import sys

import ncplift
from ncplift import dtree, f2, gadget, instance, learners, reduction, selftest, span

MODULES = (dtree, f2, gadget, instance, learners, reduction, selftest, span)


def test_exports_are_the_union_of_the_module_exports():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(ncplift.__all__) == sorted(["__version__", *names])
    for module in MODULES:
        for name in module.__all__:
            assert getattr(ncplift, name) is getattr(module, name)
    assert isinstance(ncplift.__version__, str)


def test_importing_the_pipelines_leaves_the_selftest_suite_unloaded():
    # The suite resolves on first use of its names; the pipelines never
    # touch them.  A fresh interpreter, because this one has it loaded.
    src = os.path.dirname(os.path.dirname(os.path.abspath(ncplift.__file__)))
    code = "import sys, ncplift.reduction; print('ncplift.selftest' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout == "False\n"
