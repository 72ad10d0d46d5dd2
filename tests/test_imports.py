"""The package's modules import one another without a cycle, and every
public name has a caller outside the tests.

Both are read from the source with ast, not from sys.modules: importing
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


REPO_ROOT = Path(__file__).resolve().parents[1]

# Public names that only tests refer to, each with the reason it stays.
UNCALLED_ALLOWED = {}


def _names_used(nodes) -> set:
    """Every name that `nodes` use: as a variable, an attribute, an imported
    name, or a string equal to it (perfbench/tracing.py wraps functions by
    their names)."""
    used = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                used.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                used.add(sub.attr)
            elif isinstance(sub, ast.alias):
                used.add(sub.name.rpartition(".")[2])
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used.add(sub.value)
    return used


def _public_names(node) -> list:
    """The public names that a module's top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if not n.startswith("_")]


def uncalled_public_names() -> set:
    """module.name of each public top-level function, class and constant of
    the package that no code in src/ or perfbench/ refers to, apart from its
    own definition and the package's re-export in __init__."""
    modules = {p.stem: ast.parse(p.read_text()).body
               for p in PACKAGE_DIR.glob("*.py") if p.stem != "__init__"}
    bench = sorted((REPO_ROOT / "perfbench").glob("*.py"))
    assert bench, "perfbench/ not found next to tests/"
    bench_used = _names_used(ast.parse(p.read_text()) for p in bench)
    uncalled = set()
    for name, body in modules.items():
        used = bench_used.union(*(_names_used(other_body) for other, other_body in modules.items()
                                  if other != name))
        for node in body:
            for public in _public_names(node):
                if public not in used and public not in _names_used(n for n in body if n is not node):
                    uncalled.add(f"{name}.{public}")
    return uncalled


def test_every_public_name_has_a_caller_outside_tests():
    assert uncalled_public_names() == set(UNCALLED_ALLOWED)
