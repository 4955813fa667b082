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


def selftest_loaded_by(statement):
    """Whether running the import ``statement`` in a fresh interpreter
    loads the suite, as the text True or False (this interpreter has it
    loaded)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ncplift.__file__)))
    code = f"import sys; {statement}; print('ncplift.selftest' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return out.stdout.strip()


def test_importing_the_pipelines_leaves_the_selftest_suite_unloaded():
    # The suite resolves on first use of its names; the pipelines never
    # touch them.
    assert selftest_loaded_by("import ncplift.reduction") == "False"


def test_importing_the_cli_leaves_the_selftest_suite_unloaded():
    # Only ``ncplift selftest`` imports the suite, when it runs.  The
    # ``from`` form asks the package for the name before it imports the
    # submodule.
    assert selftest_loaded_by("import ncplift.cli") == "False"
    assert selftest_loaded_by("from ncplift import cli") == "False"
