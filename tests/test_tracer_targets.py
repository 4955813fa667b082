"""The benchmark tracer's patch targets exist in the package.

``bench/spans.py`` wraps module attributes by name for a traced run.
Some of those names are kept in ``src/`` only for it (for example
``instance.combinations``), so a cleanup that drops one breaks
``bench/run.py --trace 1`` while every other test still passes.  The
tracer module is loaded from its file, with no change to it or to
``sys.path``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    # Dataclasses look their module up in sys.modules while the file runs.
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_patch_target_resolves():
    patches = load_spans().PATCHES
    assert patches
    missing = [
        f"ncplift.{module}.{attr}"
        for module, attr, *_ in patches
        if not hasattr(importlib.import_module(f"ncplift.{module}"), attr)
    ]
    assert missing == []
