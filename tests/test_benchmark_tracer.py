"""The benchmark's tracer wraps package functions by name: every name it
lists must exist, or a traced run fails when it installs its wrappers."""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _layer_functions() -> tuple:
    """LAYER_FUNCTIONS of perfbench/tracing.py, read from its source."""
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "LAYER_FUNCTIONS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYER_FUNCTIONS in {TRACING}")


def test_every_traced_function_exists():
    # The tracer also wraps cli.main, by a name of its own.
    names = [(mod, fn) for mod, fns in _layer_functions() for fn in fns] + [("cli", "main")]
    assert len(names) > 20
    missing = [f"{mod}.{fn}" for mod, fn in names
               if not callable(getattr(importlib.import_module(f"viewsynth.{mod}"), fn, None))]
    assert missing == []
