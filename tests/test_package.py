"""The package namespace: every module's public names, once each."""

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
