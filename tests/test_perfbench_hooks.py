"""Every callable the benchmark's traced run wraps still exists, so a
rename or a deletion in the package cannot break that run unseen.
``perfbench/tracing.py`` is only read: importing it has no side effects,
and nothing here installs its wrappers."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_path_resolves_in_the_package():
    tracing = load_tracing()
    hooks = [*tracing.TRACED, tracing.LEAF, tracing.SCAN_TASK]
    for name, module, path in hooks:
        importlib.import_module(module)
        assert callable(tracing._resolve(module, path)), name
    # the traced scan swaps in its own pool under this name
    assert hasattr(importlib.import_module("circlewalk.cli"),
                   "ProcessPoolExecutor")
