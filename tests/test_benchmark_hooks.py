"""The benchmark's tracer (perfbench/tracing.py) wraps package functions by name.

A hook whose target is renamed or deleted is only reported as missing in a
traced run, and leaves that function's counters empty; these tests fail
instead. The tracer's module is read here, never changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()


@pytest.mark.parametrize("hook", tracing.HOOKS, ids=[hook.name for hook in tracing.HOOKS])
def test_every_hook_names_a_callable(hook):
    target = importlib.import_module(f"{tracing.PACKAGE}.{hook.module}")
    for part in hook.attr.split("."):
        target = getattr(target, part, None)
    assert callable(target), f"{hook.name}: {tracing.PACKAGE}.{hook.module}.{hook.attr}"
