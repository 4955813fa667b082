"""The package is its modules: each names its own exports, and the
package namespace holds none of them."""

import os
import subprocess
import sys

import ncplift
from ncplift import cli, dtree, f2, gadget, instance, learners, reduction, selftest, span

MODULES = (cli, dtree, f2, gadget, instance, learners, reduction, selftest, span)


def test_each_module_exports_what_it_defines():
    for module in MODULES:
        assert len(module.__all__) == len(set(module.__all__)), module.__name__
        for name in module.__all__:
            assert hasattr(module, name), f"{module.__name__}.{name}"
    assert isinstance(ncplift.__version__, str)


def loaded_by(statement):
    """The ``ncplift`` modules that running the import ``statement`` in
    a fresh interpreter loads, sorted (this interpreter has them all
    loaded)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(ncplift.__file__)))
    code = (
        f"import sys; {statement}; "
        "print(*sorted(m for m in sys.modules if m.partition('.')[0] == 'ncplift'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return out.stdout.split()


def selftest_loaded_by(statement):
    """Whether running the import ``statement`` in a fresh interpreter
    loads the suite, as the text True or False."""
    return str("ncplift.selftest" in loaded_by(statement))


def test_importing_the_package_loads_no_module():
    assert loaded_by("import ncplift") == ["ncplift"]


def test_importing_the_pipelines_leaves_the_selftest_suite_unloaded():
    # Only the suite's own callers import it; the pipelines never do.
    assert selftest_loaded_by("import ncplift.reduction") == "False"


def test_importing_the_cli_leaves_the_selftest_suite_unloaded():
    # Only ``ncplift selftest`` imports the suite, when it runs.  The
    # ``from`` form asks the package for the name before it imports the
    # submodule.
    assert selftest_loaded_by("import ncplift.cli") == "False"
    assert selftest_loaded_by("from ncplift import cli") == "False"
