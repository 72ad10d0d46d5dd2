"""The package's modules import one another without a cycle.

The graph is read from the source with ast, not from sys.modules: importing
viewsynth imports every module, so a cycle never shows at run time.
"""

import ast
import graphlib
from pathlib import Path

import pytest

import viewsynth

PACKAGE_DIR = Path(viewsynth.__file__).parent


def _package_imports(source: str) -> set:
    """The package's names that `source` imports, at any scope: x of each
    imported dotted name viewsynth.x[...], relative imports included."""
    dotted = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # Level 1 is this package; `from m import y` may import module m.y.
            module = ".".join(filter(None, ["viewsynth" if node.level == 1 else "", node.module]))
            dotted += [module] + [f"{module}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in dotted if name.startswith("viewsynth.")}


def import_graph() -> dict:
    """Module name -> the package's modules it imports."""
    sources = {p.stem: p.read_text() for p in PACKAGE_DIR.glob("*.py")}
    return {name: _package_imports(src) & sources.keys() for name, src in sources.items()}


def test_import_graph_sees_function_local_and_absolute_imports():
    source = ("from . import geometry, sampler\n"
              "from .geometry import Intrinsics\n"
              "import viewsynth.fileio\n"
              "def f():\n"
              "    from . import model\n"
              "    from viewsynth.synth import render_scene\n"
              "    from viewsynth import evaluation\n")
    assert _package_imports(source) == {"geometry", "sampler", "fileio", "model", "synth",
                                        "evaluation"}


def test_package_import_graph_is_acyclic():
    graph = import_graph()
    assert {"losses", "model"} <= graph.keys() and "losses" in graph["model"]
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as e:
        pytest.fail("import cycle: " + " -> ".join(e.args[1]))


def test_every_exported_name_resolves():
    missing = [name for name in viewsynth.__all__ if not hasattr(viewsynth, name)]
    assert missing == []
    assert len(set(viewsynth.__all__)) == len(viewsynth.__all__)
    namespace = {}
    exec("from viewsynth import *", namespace)
    assert set(viewsynth.__all__) <= namespace.keys()
